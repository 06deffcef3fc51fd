package harvest

import (
	"encoding/json"
	"fmt"

	"perfiso/internal/cluster"
	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// Config tunes the scheduler. It is JSON-serializable so Autopilot can
// distribute it cluster-wide like the PerfIso config file.
type Config struct {
	// Tick is the scheduling cadence on the simulation clock.
	Tick sim.Duration `json:"tick_ns"`
	// TaskCores is the capacity (in cores) one task is assumed to
	// consume, used for slot math and the HarvestAware score.
	TaskCores float64 `json:"task_cores"`
	// MaxTasksPerMachine is the static per-machine task ceiling every
	// policy respects.
	MaxTasksPerMachine int `json:"max_tasks_per_machine"`
	// PreemptBelow is the buffer-squeeze threshold in cores: when a
	// machine's harvest capacity falls below it, every task there is
	// preempted and requeued (the machine's PerfIso buffer has been
	// eaten into; batch work must go elsewhere).
	PreemptBelow float64 `json:"preempt_below_cores"`
	// LoadPenalty is HarvestAware's discount (in cores at 100% primary
	// load).
	LoadPenalty float64 `json:"load_penalty_cores"`
	// Policy names the placement policy (see PolicyNames).
	Policy string `json:"policy"`
}

// DefaultConfig returns the scheduler defaults: a 50 ms tick,
// one-core tasks, four tasks per machine, and the harvest-aware
// policy.
func DefaultConfig() Config {
	return Config{
		Tick:               50 * sim.Millisecond,
		TaskCores:          1,
		MaxTasksPerMachine: 4,
		PreemptBelow:       0.25,
		LoadPenalty:        4,
		Policy:             PolicyHarvestAware,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Tick <= 0 {
		return fmt.Errorf("harvest: non-positive tick %v", c.Tick)
	}
	if c.TaskCores <= 0 {
		return fmt.Errorf("harvest: non-positive task cores %.2f", c.TaskCores)
	}
	if c.MaxTasksPerMachine <= 0 {
		return fmt.Errorf("harvest: non-positive per-machine ceiling %d", c.MaxTasksPerMachine)
	}
	if c.PreemptBelow < 0 {
		return fmt.Errorf("harvest: negative preemption threshold %.2f", c.PreemptBelow)
	}
	if c.LoadPenalty < 0 {
		return fmt.Errorf("harvest: negative load penalty %.2f", c.LoadPenalty)
	}
	if _, err := PolicyByName(c.Policy, c); err != nil {
		return err
	}
	return nil
}

// Marshal encodes the configuration as the JSON document Autopilot
// distributes cluster-wide.
func (c Config) Marshal() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(c, "", "  ")
}

// ParseConfig decodes and validates a JSON scheduler configuration.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("harvest: parsing config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// machineState is the scheduler's view of one index machine.
type machineState struct {
	index int
	m     *cluster.IndexMachine
	// proc is the machine's harvest worker process, created lazily on
	// first placement and wrapped by the PerfIso controller when one
	// is installed — so blind isolation governs harvest threads.
	proc    *cpumodel.Process
	running []*Task
}

// Stats is the scheduler's cumulative readout.
type Stats struct {
	JobsSubmitted  int
	TasksCompleted int
	TasksPending   int
	TasksRunning   int
	// Preemptions counts tasks shed because a machine's harvest
	// capacity shrank below what its running tasks need.
	Preemptions int
	// FailureRequeues counts tasks restarted because their machine
	// failed.
	FailureRequeues int
	// HarvestedCPU is the total CPU time batch tasks consumed across
	// the cluster — the harvest the paper's headline is about.
	HarvestedCPU sim.Duration
}

// Scheduler places batch tasks across the cluster's index machines.
// All decisions happen on the simulation clock; with a fixed seed the
// whole placement log is reproducible bit-for-bit.
type Scheduler struct {
	c      *cluster.Cluster
	cfg    Config
	policy Policy

	machines []*machineState
	byMach   map[*cluster.IndexMachine]*machineState
	pending  sim.FIFO[*Task]
	jobs     []*Job
	// cands is the candidate buffer candidates rebuilds for each task
	// it places.
	cands []Candidate

	placements []Placement
	stats      Stats

	started bool
	stopped bool
	gen     int // invalidates the previous incarnation's ticker on restart
}

// NewScheduler builds a scheduler over c and subscribes to its machine
// health transitions. Call Start (directly or through the Autopilot
// service) to begin placing work.
func NewScheduler(c *cluster.Cluster, cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol, err := PolicyByName(cfg.Policy, cfg)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		c:      c,
		cfg:    cfg,
		policy: pol,
		byMach: map[*cluster.IndexMachine]*machineState{},
	}
	for i, m := range c.MachineList() {
		ms := &machineState{index: i, m: m}
		s.machines = append(s.machines, ms)
		s.byMach[m] = ms
	}
	// Chain onto any existing health hook rather than replacing it.
	prevDown := c.OnMachineDown
	c.OnMachineDown = func(m *cluster.IndexMachine) {
		if prevDown != nil {
			prevDown(m)
		}
		if ms, ok := s.byMach[m]; ok {
			s.failMachine(ms)
		}
	}
	return s, nil
}

// Config returns the active configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Reconfigure swaps the configuration and placement policy in place —
// the path an Autopilot restart with a changed config file takes, so
// queued and running tasks carry over instead of being stranded with
// a discarded scheduler. Policy state (rotation cursors) resets.
func (s *Scheduler) Reconfigure(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	pol, err := PolicyByName(cfg.Policy, cfg)
	if err != nil {
		return err
	}
	s.cfg = cfg
	s.policy = pol
	return nil
}

// Policy returns the active placement policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// Submit enqueues a job's tasks for placement.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	j := &Job{ID: len(s.jobs) + 1, Spec: spec, Submitted: s.c.Eng.Now()}
	for i := 0; i < spec.Tasks; i++ {
		t := &Task{Job: j, Index: i, remaining: spec.TaskWork, opsLeft: spec.TaskOps}
		j.tasks = append(j.tasks, t)
		s.pending.Push(t)
	}
	s.jobs = append(s.jobs, j)
	s.stats.JobsSubmitted++
	return j, nil
}

// Jobs returns submitted jobs in submission order.
func (s *Scheduler) Jobs() []*Job { return s.jobs }

// Placements returns the placement log in decision order.
func (s *Scheduler) Placements() []Placement { return s.placements }

// Start begins the scheduling loop. Restartable after Stop (the
// Autopilot crash-recovery path); starting twice panics like the
// PerfIso controller does.
func (s *Scheduler) Start() {
	if s.started {
		panic("harvest: scheduler started twice")
	}
	s.started = true
	s.stopped = false
	s.gen++
	gen := s.gen
	s.c.Eng.Ticker(s.cfg.Tick, func() bool {
		if s.stopped || s.gen != gen {
			return false
		}
		s.Tick()
		return true
	})
}

// Stop halts the loop; running tasks keep executing where they are.
func (s *Scheduler) Stop() {
	s.stopped = true
	s.started = false
}

// Tick runs one scheduling round: shed tasks from machines whose
// capacity no longer covers them, then place pending tasks.
func (s *Scheduler) Tick() {
	s.shed()
	s.place()
}

// capacity reports how many cores the machine can devote to batch
// work right now: the cores its running tasks already occupy plus the
// smoothed idle-beyond-buffer headroom. The occupied term is capped
// by the secondary job's actual core grant — granted-but-unused cores
// sit idle and are therefore already inside the headroom term, so
// adding the full grant would double-count them (and a stale grant
// would inflate a squeezed machine's signal). A kill-switched
// controller offers no safe harvest guarantee, so its machine reports
// zero. Machines without a PerfIso controller report their raw
// idle-core count.
func (s *Scheduler) capacity(ms *machineState) float64 {
	if ms.m.Controller != nil {
		if ms.m.Controller.Disabled() {
			return 0
		}
		h := ms.m.Controller.Harvest()
		occupied := s.cfg.TaskCores * float64(len(ms.running))
		if grant := float64(h.SecondaryCores); occupied > grant {
			occupied = grant
		}
		return occupied + h.Smoothed
	}
	return float64(ms.m.Node.CPU.IdleCount())
}

// shed preempts tasks a machine can no longer support: all of them
// when the machine is down (backstop for the eager failure hook) or
// when the machine's harvest capacity collapsed below PreemptBelow —
// the primary has eaten into the PerfIso buffer, the secondary grant
// is gone, and parked batch work should migrate instead of waiting
// out the surge. Machines that are merely slow keep their tasks; how
// work avoids them in the first place is the placement policy's job.
func (s *Scheduler) shed() {
	for _, ms := range s.machines {
		if len(ms.running) == 0 {
			continue
		}
		if ms.m.Down() {
			s.failMachine(ms)
			continue
		}
		if ms.m.Controller == nil {
			continue // no signal to act on
		}
		if s.capacity(ms) >= s.cfg.PreemptBelow {
			continue
		}
		for len(ms.running) > 0 {
			t := ms.running[len(ms.running)-1] // shed newest first
			s.preempt(t)
			s.stats.Preemptions++
			s.pending.Push(t)
		}
	}
}

// place matches pending tasks to machines via the policy. The queue
// is FIFO: a head-of-line task the policy declines to place blocks
// the round, keeping placement order deterministic and fair.
func (s *Scheduler) place() {
	for s.pending.Len() > 0 {
		cands := s.candidates()
		if len(cands) == 0 {
			return
		}
		t := s.pending.Front()
		pick := s.policy.Pick(t, cands)
		if pick < 0 {
			return
		}
		s.pending.Pop()
		s.start(s.machines[cands[pick].Index], t)
	}
}

// candidates lists machines eligible for placement, in row-major
// order: healthy, below the static task ceiling, and above the
// PreemptBelow capacity floor. The floor is a scheduler invariant,
// not a policy choice — placing where shed() would evict on the very
// next tick (or onto a kill-switched machine) is churn under any
// policy. The list lives in the scheduler's buffer and is valid until
// the next call.
func (s *Scheduler) candidates() []Candidate {
	out := s.cands[:0]
	for _, ms := range s.machines {
		if ms.m.Down() || len(ms.running) >= s.cfg.MaxTasksPerMachine {
			continue
		}
		cap := s.capacity(ms)
		if cap < s.cfg.PreemptBelow {
			continue
		}
		b := ms.m.Node.CPU.Breakdown()
		out = append(out, Candidate{
			Index:       ms.index,
			Row:         ms.m.Row,
			Col:         ms.m.Column,
			Running:     len(ms.running),
			Capacity:    cap,
			PrimaryLoad: b.PrimaryPct + b.OSPct,
		})
	}
	s.cands = out
	return out
}

// start launches t on ms and logs the placement.
func (s *Scheduler) start(ms *machineState, t *Task) {
	if ms.proc == nil {
		ms.proc = ms.m.Node.CPU.NewProcess(
			fmt.Sprintf("harvest-%d-%d", ms.m.Row, ms.m.Column), stats.ClassSecondary)
		if ms.m.Controller != nil {
			ms.m.Controller.ManageSecondary(ms.proc)
		}
	}
	t.Attempts++
	t.State = TaskRunning
	t.machine = ms
	t.epoch++
	epoch := t.epoch
	ms.running = append(ms.running, t)
	s.placements = append(s.placements, Placement{
		At:      s.c.Eng.Now(),
		Job:     t.Job.Spec.Name,
		Task:    t.Index,
		Attempt: t.Attempts,
		Row:     ms.m.Row,
		Col:     ms.m.Column,
		Policy:  s.policy.Name(),
	})
	if t.Job.Spec.Kind == cluster.DiskSecondary {
		s.issueDiskOp(ms, t, epoch)
		return
	}
	threads := t.Job.Spec.ThreadsPerTask
	if threads <= 0 {
		threads = 1
	}
	per := t.remaining / sim.Duration(threads)
	if per <= 0 {
		per = 1
	}
	t.threads = t.threads[:0]
	t.live = 0
	left := t.remaining
	all := cpumodel.AllCores(ms.m.Node.CPU.Cores())
	done := func() {
		if t.epoch != epoch {
			return // a superseded placement's thread
		}
		t.live--
		if t.live == 0 {
			s.complete(t)
		}
	}
	for i := 0; i < threads && left > 0; i++ {
		burst := per
		if i == threads-1 || burst > left {
			burst = left
		}
		left -= burst
		t.live++
		t.threads = append(t.threads, ms.m.Node.CPU.Spawn(ms.proc, burst, all, done))
	}
}

// issueDiskOp submits one synchronous 8 KB operation of a disk task,
// chaining the next on completion (a DiskSPD-style stream, §5.3).
// Reads and writes alternate 1:2, matching the paper's 33%/67% mix,
// deterministically by op parity. The epoch guard kills a chain whose
// placement has been superseded: without it, an op still in flight
// when the task migrates would keep draining the shared op counter on
// the old machine.
func (s *Scheduler) issueDiskOp(ms *machineState, t *Task, epoch int) {
	if t.epoch != epoch || t.opsLeft <= 0 {
		return
	}
	op := s.newDiskOp(t)
	op.ms, op.epoch = ms, epoch
	op.req.Kind = diskmodel.OpWrite
	if t.opsLeft%3 == 0 {
		op.req.Kind = diskmodel.OpRead
	}
	ms.m.Node.HDD.Submit(&op.req)
}

// diskOp is one of a disk task's operations: its request, with the
// completion bound once, and the placement that issued it. A task
// reuses an op only after its completion has fired. A preempted task
// can restart elsewhere while its last op is still queued on the old
// machine, so that op must not be resubmitted until it completes; the
// new chain takes another op meanwhile.
type diskOp struct {
	s     *Scheduler
	t     *Task
	ms    *machineState
	epoch int
	req   diskmodel.Request
}

// newDiskOp takes one of t's completed ops, or makes one and binds
// its completion.
func (s *Scheduler) newDiskOp(t *Task) *diskOp {
	if n := len(t.ops); n > 0 {
		op := t.ops[n-1]
		t.ops = t.ops[:n-1]
		return op
	}
	op := &diskOp{s: s, t: t}
	op.req = diskmodel.Request{
		Proc:       "harvest-disk",
		Bytes:      8 << 10,
		Sequential: true,
		OnComplete: op.completed,
	}
	return op
}

// completed returns the op to its task and, unless its placement has
// been superseded, counts it and chains the next.
func (op *diskOp) completed() {
	s, t, ms, epoch := op.s, op.t, op.ms, op.epoch
	op.ms = nil
	t.ops = append(t.ops, op)
	if t.epoch != epoch {
		return
	}
	t.opsLeft--
	if t.opsLeft == 0 {
		s.complete(t)
		return
	}
	s.issueDiskOp(ms, t, epoch)
}

// complete retires a finished task. A CPU task's threads are all Done
// by now, so they go back to the machine for reuse.
func (s *Scheduler) complete(t *Task) {
	ms := t.machine
	s.unlink(ms, t)
	s.release(ms, t)
	t.State = TaskDone
	t.machine = nil
	t.remaining = 0
	t.Job.Completed++
	s.stats.TasksCompleted++
}

// preempt takes a running task off its machine, preserving progress:
// CPU threads are cancelled, their unconsumed burst is requeued and the
// threads go back to the machine for reuse; disk streams stop issuing
// and the remaining op count carries over.
func (s *Scheduler) preempt(t *Task) {
	ms := t.machine
	s.unlink(ms, t)
	t.epoch++ // strands any in-flight callbacks of this placement
	if t.Job.Spec.Kind == cluster.CPUSecondary {
		var left sim.Duration
		for _, th := range t.threads {
			if th.State == cpumodel.StateDone {
				continue
			}
			ms.m.Node.CPU.Cancel(th)
			left += th.Remaining
		}
		if left <= 0 {
			left = 1
		}
		t.remaining = left
		s.release(ms, t)
	}
	t.live = 0
	t.State = TaskPending
	t.machine = nil
}

// failMachine requeues every task on a dead machine. Unlike a
// preemption, in-progress state died with the machine: CPU tasks
// restart from their full demand, disk tasks from their full op
// count.
func (s *Scheduler) failMachine(ms *machineState) {
	for len(ms.running) > 0 {
		t := ms.running[len(ms.running)-1]
		s.preempt(t)
		t.remaining = t.Job.Spec.TaskWork
		t.opsLeft = t.Job.Spec.TaskOps
		s.stats.FailureRequeues++
		s.pending.Push(t)
	}
}

// release hands t's threads, every one of them Done, back to the
// machine that ran them and forgets them. Spawn may then return them
// as new threads; their IDs come from the machine's counter either way.
func (s *Scheduler) release(ms *machineState, t *Task) {
	for _, th := range t.threads {
		ms.m.Node.CPU.Release(th)
	}
	clear(t.threads)
	t.threads = t.threads[:0]
}

// unlink removes t from its machine's running list.
func (s *Scheduler) unlink(ms *machineState, t *Task) {
	for i, x := range ms.running {
		if x == t {
			ms.running = append(ms.running[:i], ms.running[i+1:]...)
			return
		}
	}
	panic("harvest: task not on its machine")
}

// Stats returns the cumulative scheduler statistics.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.TasksPending = s.pending.Len()
	for _, ms := range s.machines {
		st.TasksRunning += len(ms.running)
		if ms.proc != nil {
			st.HarvestedCPU += ms.proc.CPUTime()
		}
	}
	return st
}
