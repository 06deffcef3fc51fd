package harvest

import (
	"fmt"
	"testing"

	"perfiso/internal/cluster"
	"perfiso/internal/core"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// newTestCluster assembles a small PerfIso-managed cluster (cols
// columns × 2 rows) with a scheduler using the given policy.
func newTestCluster(t testing.TB, cols int, policy string) (*sim.Engine, *cluster.Cluster, *Scheduler) {
	t.Helper()
	eng := sim.NewEngine()
	ccfg := cluster.ScaledConfig(cols)
	c := cluster.New(eng, ccfg)
	if err := c.InstallPerfIso(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	hcfg := DefaultConfig()
	hcfg.Policy = policy
	sched, err := NewScheduler(c, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	return eng, c, sched
}

func TestSchedulerCompletesCPUJob(t *testing.T) {
	eng, _, sched := newTestCluster(t, 2, PolicyHarvestAware)
	j, err := sched.Submit(JobSpec{
		Name:     "batch",
		Tasks:    8,
		TaskWork: 200 * sim.Millisecond,
		Kind:     cluster.CPUSecondary,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * sim.Time(sim.Second))
	if !j.Done() {
		t.Fatalf("job incomplete: %d/%d tasks", j.Completed, j.Spec.Tasks)
	}
	st := sched.Stats()
	if st.TasksCompleted != 8 || st.TasksPending != 0 || st.TasksRunning != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Each task consumed its full demand; the harvested CPU must cover
	// the job's total work.
	if want := 8 * 200 * sim.Millisecond; st.HarvestedCPU < want {
		t.Fatalf("harvested %v < job demand %v", st.HarvestedCPU, want)
	}
	if len(sched.Placements()) < 8 {
		t.Fatalf("placement log has %d entries, want ≥8", len(sched.Placements()))
	}
}

func TestSchedulerCompletesDiskJob(t *testing.T) {
	eng, _, sched := newTestCluster(t, 2, PolicyRoundRobin)
	j, err := sched.Submit(JobSpec{
		Name:    "disk-batch",
		Tasks:   4,
		TaskOps: 50,
		Kind:    cluster.DiskSecondary,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(4 * sim.Time(sim.Second))
	if !j.Done() {
		t.Fatalf("disk job incomplete: %d/%d tasks", j.Completed, j.Spec.Tasks)
	}
}

func TestSchedulerMultiThreadedTasks(t *testing.T) {
	eng, _, sched := newTestCluster(t, 1, PolicyLeastLoaded)
	j, err := sched.Submit(JobSpec{
		Name:           "wide",
		Tasks:          3,
		TaskWork:       400 * sim.Millisecond,
		ThreadsPerTask: 4,
		Kind:           cluster.CPUSecondary,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * sim.Time(sim.Second))
	if !j.Done() {
		t.Fatalf("multi-threaded job incomplete: %d/%d", j.Completed, j.Spec.Tasks)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, _, sched := newTestCluster(t, 1, PolicyHarvestAware)
	bad := []JobSpec{
		{Name: "no-tasks", Tasks: 0, TaskWork: sim.Second, Kind: cluster.CPUSecondary},
		{Name: "no-work", Tasks: 1, Kind: cluster.CPUSecondary},
		{Name: "no-ops", Tasks: 1, Kind: cluster.DiskSecondary},
		{Name: "bad-kind", Tasks: 1, TaskWork: sim.Second, Kind: cluster.NoSecondary},
	}
	for _, spec := range bad {
		if _, err := sched.Submit(spec); err == nil {
			t.Errorf("spec %q accepted", spec.Name)
		}
	}
}

// TestPreemptionOnBufferSqueeze drives the rescue path: a machine
// whose primary surges loses its harvest capacity, and the scheduler
// must migrate its tasks instead of leaving them parked.
func TestPreemptionOnBufferSqueeze(t *testing.T) {
	eng, c, sched := newTestCluster(t, 1, PolicyHarvestAware)
	j, err := sched.Submit(JobSpec{
		Name:     "squeeze",
		Tasks:    2,
		TaskWork: 2 * sim.Second,
		Kind:     cluster.CPUSecondary,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the tasks place (one per machine under harvest-aware
	// spreading), then saturate machine (0,0) with primary load.
	eng.Run(sim.Time(200 * sim.Millisecond))
	m := c.Machines[0][0]
	bully := workload.NewCPUBully(m.Node.CPU, "surge", m.Node.CPU.Cores())
	bully.Proc.Class = stats.ClassPrimary
	bully.Start()
	eng.Run(sim.Time(1 * sim.Second))

	st := sched.Stats()
	if st.Preemptions == 0 {
		t.Fatal("no preemption despite a saturated machine")
	}
	// The preempted task must have been re-placed on the healthy
	// machine (0→... row 1) and the job must still finish.
	eng.Run(sim.Time(6 * sim.Second))
	if !j.Done() {
		t.Fatalf("job incomplete after migration: %d/%d", j.Completed, j.Spec.Tasks)
	}
	last := sched.Placements()[len(sched.Placements())-1]
	if last.Row == 0 && last.Col == 0 {
		t.Fatalf("final placement stayed on the saturated machine: %v", last)
	}
}

// TestFailMachineRequeues drives the failure path: tasks on a failed
// machine restart from scratch elsewhere.
func TestFailMachineRequeues(t *testing.T) {
	eng, c, sched := newTestCluster(t, 1, PolicyLeastLoaded)
	j, err := sched.Submit(JobSpec{
		Name:     "failover",
		Tasks:    2,
		TaskWork: sim.Second,
		Kind:     cluster.CPUSecondary,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.Time(200 * sim.Millisecond))
	c.FailMachine(0, 0)
	eng.Run(sim.Time(4 * sim.Second))

	st := sched.Stats()
	if st.FailureRequeues == 0 {
		t.Fatal("no failure requeue after FailMachine")
	}
	if !j.Done() {
		t.Fatalf("job incomplete after failover: %d/%d", j.Completed, j.Spec.Tasks)
	}
	for _, p := range sched.Placements() {
		if p.Attempt > 1 && p.Row == 0 && p.Col == 0 {
			t.Fatalf("requeued task re-placed on the failed machine: %v", p)
		}
	}
}

// TestDiskTaskFailoverRunsFullStream: a disk task migrated off a
// failed machine must not let the old machine's in-flight op keep
// draining its counter — the restarted stream runs the full op count
// on the new machine, and the old machine's harvest I/O stops.
func TestDiskTaskFailoverRunsFullStream(t *testing.T) {
	eng, c, sched := newTestCluster(t, 1, PolicyLeastLoaded)
	j, err := sched.Submit(JobSpec{
		Name:    "disk-failover",
		Tasks:   1,
		TaskOps: 400,
		Kind:    cluster.DiskSecondary,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.Time(300 * sim.Millisecond))
	first := sched.Placements()[0]
	c.FailMachine(first.Row, first.Col)
	// Let the failed machine's in-flight op drain, then snapshot its
	// harvest I/O counter: it must not advance afterwards.
	eng.Run(sim.Time(500 * sim.Millisecond))
	old := c.Machines[first.Row][first.Col].Node.HDD.Stats("harvest-disk").Ops
	eng.Run(sim.Time(8 * sim.Second))
	if got := c.Machines[first.Row][first.Col].Node.HDD.Stats("harvest-disk").Ops; got != old {
		t.Fatalf("stale disk chain kept running on the failed machine: %d -> %d ops", old, got)
	}
	if !j.Done() {
		t.Fatalf("disk job incomplete after failover: %d/%d", j.Completed, j.Spec.Tasks)
	}
	// The replacement machine served the full stream from scratch.
	last := sched.Placements()[len(sched.Placements())-1]
	newOps := c.Machines[last.Row][last.Col].Node.HDD.Stats("harvest-disk").Ops
	if newOps < 400 {
		t.Fatalf("replacement machine served %d ops, want ≥ the full 400", newOps)
	}
}

// TestDiskTaskRestartWhileOpInFlight: a disk task preempted and
// restarted on another machine in the same instant leaves its current
// op queued on the old machine. That op's request must not be
// resubmitted before it completes: the old machine serves it uncounted,
// and the new machine serves exactly the ops that were left.
func TestDiskTaskRestartWhileOpInFlight(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, cluster.ScaledConfig(2))
	sched, err := NewScheduler(c, DefaultConfig()) // not started: the test places by hand
	if err != nil {
		t.Fatal(err)
	}
	j, err := sched.Submit(JobSpec{Name: "disk", Tasks: 1, TaskOps: 2000, Kind: cluster.DiskSecondary})
	if err != nil {
		t.Fatal(err)
	}
	task := j.Tasks()[0]
	sched.pending = sim.FIFO[*Task]{}
	from, to := sched.machines[0], sched.machines[1]
	served := func(ms *machineState) uint64 { return ms.m.Node.HDD.Stats("harvest-disk").Ops }

	sched.start(from, task)
	eng.Run(sim.Time(20 * sim.Millisecond))
	sched.preempt(task)
	left, before := task.OpsLeft(), served(from)
	if left == 0 || left == 2000 {
		t.Fatalf("%d ops left at the preemption; want the stream part-way through", left)
	}
	sched.start(to, task)
	for !j.Done() && eng.Now() < sim.Time(10*sim.Second) && eng.Step() {
	}
	if !j.Done() {
		t.Fatalf("task incomplete: %d ops left", task.OpsLeft())
	}
	if got := served(to); got != uint64(left) {
		t.Fatalf("new machine served %d ops by the task's completion, want the %d left", got, left)
	}
	eng.Run(eng.Now().Add(sim.Second))
	if got := served(from); got != before+1 {
		t.Fatalf("old machine served %d ops after the preemption, want its one in-flight op", got-before)
	}
	if got := served(to); got != uint64(left) || task.OpsLeft() != 0 {
		t.Fatalf("after completion the new machine served %d ops of %d, with %d left", got, left, task.OpsLeft())
	}
}

// TestDisabledControllerAttractsNoWork: a kill-switched PerfIso
// controller offers no harvest guarantee, so its machine must stop
// receiving placements and lose the tasks it has. Round-robin is the
// strongest probe here: it ignores capacity entirely, so only the
// scheduler's own candidate floor keeps it off disabled machines.
func TestDisabledControllerAttractsNoWork(t *testing.T) {
	eng, c, sched := newTestCluster(t, 1, PolicyRoundRobin)
	c.EachMachine(func(m *cluster.IndexMachine) { m.Controller.Disable() })
	if _, err := sched.Submit(JobSpec{
		Name:     "nowhere",
		Tasks:    2,
		TaskWork: 100 * sim.Millisecond,
		Kind:     cluster.CPUSecondary,
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(sim.Time(1 * sim.Second))
	if n := len(sched.Placements()); n != 0 {
		t.Fatalf("%d placements onto kill-switched machines", n)
	}
	// Re-enabling restores placement.
	c.EachMachine(func(m *cluster.IndexMachine) { m.Controller.Enable() })
	eng.Run(sim.Time(3 * sim.Second))
	if len(sched.Placements()) == 0 {
		t.Fatal("no placements after controllers re-enabled")
	}
}

// runPlacementScenario runs a noisy cluster scenario and returns its
// placement log, for the determinism guarantee.
func runPlacementScenario(seed uint64) []Placement {
	eng := sim.NewEngine()
	ccfg := cluster.ScaledConfig(2)
	ccfg.Seed = seed
	c := cluster.New(eng, ccfg)
	if err := c.InstallPerfIso(core.DefaultConfig()); err != nil {
		panic(err)
	}
	// A hotspot machine, so placements depend on the capacity signal.
	bg := workload.NewBackgroundCPU(c.Machines[0][0].Node.CPU, "hot", stats.ClassPrimary, 0.5)
	bg.Start()
	hcfg := DefaultConfig()
	hcfg.Policy = PolicyHarvestAware
	sched, err := NewScheduler(c, hcfg)
	if err != nil {
		panic(err)
	}
	sched.Start()
	for i := 0; i < 2; i++ {
		if _, err := sched.Submit(JobSpec{
			Name:     fmt.Sprintf("job-%d", i),
			Tasks:    6,
			TaskWork: 300 * sim.Millisecond,
			Kind:     cluster.CPUSecondary,
		}); err != nil {
			panic(err)
		}
	}
	c.Run(1500, 300, 2000, seed)
	return sched.Placements()
}

// TestDeterministicPlacements: the same seed must yield an identical
// placement log across two independent runs — the property every
// experiment and regression test in this repo leans on.
func TestDeterministicPlacements(t *testing.T) {
	a := runPlacementScenario(7)
	b := runPlacementScenario(7)
	if len(a) != len(b) {
		t.Fatalf("placement counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("scenario produced no placements")
	}
}

func TestReconfigureSwapsPolicyInPlace(t *testing.T) {
	_, _, sched := newTestCluster(t, 1, PolicyHarvestAware)
	cfg := sched.Config()
	cfg.Policy = PolicyRoundRobin
	if err := sched.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if got := sched.Policy().Name(); got != PolicyRoundRobin {
		t.Fatalf("policy = %q after reconfigure, want %q", got, PolicyRoundRobin)
	}
	cfg.Tick = 0
	if err := sched.Reconfigure(cfg); err == nil {
		t.Fatal("invalid reconfigure accepted")
	}
	if got := sched.Policy().Name(); got != PolicyRoundRobin {
		t.Fatalf("failed reconfigure mutated policy to %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Tick = 0 },
		func(c *Config) { c.TaskCores = 0 },
		func(c *Config) { c.MaxTasksPerMachine = 0 },
		func(c *Config) { c.PreemptBelow = -1 },
		func(c *Config) { c.LoadPenalty = -1 },
		func(c *Config) { c.Policy = "mystery" },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := ParseConfig([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}
