package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"perfiso/internal/autopilot"
	"perfiso/internal/cluster"
	"perfiso/internal/core"
	"perfiso/internal/harvest"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// HarvestScale sizes the batch-harvest frontier experiment: a PerfIso
// cluster serving its query trace while the harvest scheduler drains a
// backlog of batch jobs, once per placement policy. A fraction of
// machines carry an extra "noisy neighbor" primary-class load so that
// harvest capacity is heterogeneous — the regime where placement
// actually matters.
type HarvestScale struct {
	// Columns sizes the cluster (× 2 rows).
	Columns int
	// Queries, Warmup, and RatePerRow shape the primary trace, as in
	// Fig. 9.
	Queries    int
	Warmup     int
	RatePerRow float64
	Seed       uint64

	// Jobs × TasksPerJob batch tasks are submitted at time zero.
	Jobs        int
	TasksPerJob int
	// TaskWork is the CPU demand per task.
	TaskWork sim.Duration
	// Hotspots is how many machines (row-major prefix) carry the extra
	// primary-class load; HotspotLoad is its fraction of machine CPU.
	Hotspots    int
	HotspotLoad float64
}

// DefaultHarvestScale is a fast frontier run: a 6×2 cluster with a
// third of the machines hot. The batch backlog is sized to fit the
// quiet machines' slots exactly, so every task a placement policy
// strands on a hot machine is a quiet-machine core left unharvested —
// the regime where capacity-aware placement pays.
func DefaultHarvestScale() HarvestScale {
	return HarvestScale{
		Columns:     6,
		Queries:     6000,
		Warmup:      1000,
		RatePerRow:  1000,
		Seed:        2017,
		Jobs:        4,
		TasksPerJob: 8,
		TaskWork:    3 * sim.Second,
		Hotspots:    4,
		HotspotLoad: 0.55,
	}
}

// PaperHarvestScale runs the frontier on the full Fig. 9 topology
// (22 columns × 2 rows) with a proportionally larger backlog and the
// same third-of-the-cluster hotspot fraction.
func PaperHarvestScale() HarvestScale {
	return HarvestScale{
		Columns:     22,
		Queries:     200000,
		Warmup:      20000,
		RatePerRow:  4000,
		Seed:        2017,
		Jobs:        16,
		TasksPerJob: 16,
		TaskWork:    5 * sim.Second,
		Hotspots:    14,
		HotspotLoad: 0.55,
	}
}

// HarvestPoint is one policy's cell on the throughput-vs-latency
// frontier.
type HarvestPoint struct {
	Policy string
	// TasksCompleted and Throughput (tasks per simulated second)
	// measure batch progress over the run.
	TasksCompleted int
	Throughput     float64
	// HarvestedCPUSeconds is total CPU time batch tasks consumed.
	HarvestedCPUSeconds float64
	// Server and TLA are the primary's per-layer latency summaries.
	Server stats.LatencySummary
	TLA    stats.LatencySummary
	// Preemptions and FailureRequeues count scheduler interventions.
	Preemptions     int
	FailureRequeues int
	// Placements is the length of the placement log.
	Placements int
	// Series carries the cell's captured time series (batch progress
	// ramps and primary queue pressure vs simulated time).
	Series []SeriesTrack `json:"Series,omitempty"`
}

// HarvestFrontier is the three-policy comparison.
type HarvestFrontier struct {
	Scale  HarvestScale
	Points []HarvestPoint
}

// runHarvestScenario assembles one cluster under PerfIso, overlays the
// hotspot load, submits the synthetic batch backlog through an
// Autopilot-managed harvest scheduler, and replays the query trace.
func runHarvestScenario(scale HarvestScale, policy string) HarvestPoint {
	return runHarvestScenarioWith(scale, policy, func(sched *harvest.Scheduler) {
		for j := 0; j < scale.Jobs; j++ {
			if _, err := sched.Submit(harvest.JobSpec{
				Name:     fmt.Sprintf("batch-%d", j),
				Tasks:    scale.TasksPerJob,
				TaskWork: scale.TaskWork,
				Kind:     cluster.CPUSecondary,
			}); err != nil {
				panic(err)
			}
		}
	})
}

// runHarvestScenarioWith is the scenario core shared by the synthetic
// frontier and the trace-replay frontier: feed installs the batch
// workload (a backlog dump or a trace feeder) once the scheduler is
// running.
func runHarvestScenarioWith(scale HarvestScale, policy string, feed func(*harvest.Scheduler)) HarvestPoint {
	eng := sim.NewEngine()
	ccfg := cluster.ScaledConfig(scale.Columns)
	ccfg.Seed = scale.Seed
	c := cluster.New(eng, ccfg)
	if err := c.InstallPerfIso(core.DefaultConfig()); err != nil {
		panic(err)
	}

	// Noisy neighbors: extra primary-class CPU load on the first
	// Hotspots machines (row-major), shrinking their harvestable
	// capacity without touching the query path.
	for i, m := range c.MachineList() {
		if i >= scale.Hotspots {
			break
		}
		bg := workload.NewBackgroundCPU(m.Node.CPU,
			fmt.Sprintf("hotspot-%d", i), stats.ClassPrimary, scale.HotspotLoad)
		bg.Start()
	}

	// The scheduler runs as an Autopilot-managed service, configured
	// through the distributed harvest.json like PerfIso itself.
	hcfg := harvest.DefaultConfig()
	hcfg.Policy = policy
	mgr := autopilot.NewManager(eng)
	blob, err := json.Marshal(hcfg)
	if err != nil {
		panic(err)
	}
	mgr.DistributeConfig(harvest.ConfigFileName, blob)
	svc := harvest.NewService(c, harvest.DefaultConfig())
	if err := mgr.Register(svc, 0); err != nil {
		panic(err)
	}
	if err := mgr.StartService(harvest.ServiceName); err != nil {
		panic(err)
	}
	sched := svc.Scheduler()
	feed(sched)

	rate := scale.RatePerRow * float64(ccfg.Rows)

	// Per-cell time series: sample the scheduler's progress ramp at
	// window boundaries across the expected trace span (the harvest
	// analogue of the Fig. 4 timeline capture). Sampling happens inside
	// the seeded engine, so the tracks merge byte-identically.
	traceSpan := sim.Duration(float64(scale.Queries) / rate * float64(sim.Second))
	smp := newSampler(eng, traceSpan)
	smp.probe("tasks_completed", "tasks", func(int) float64 {
		return float64(sched.Stats().TasksCompleted)
	})
	smp.probe("tasks_running", "tasks", func(int) float64 {
		return float64(sched.Stats().TasksRunning)
	})
	smp.probe("harvested_cpu_sec", "cpu-sec", func(int) float64 {
		return sched.Stats().HarvestedCPU.Seconds()
	})
	smp.start()

	c.Run(scale.Queries, scale.Warmup, rate, scale.Seed)
	if err := mgr.StopService(harvest.ServiceName); err != nil {
		panic(err)
	}
	foldCell(eng, nil, sched, controllers(c)...)

	st := sched.Stats()
	span := eng.Now().Sub(0)
	p := HarvestPoint{
		Policy:              policy,
		TasksCompleted:      st.TasksCompleted,
		HarvestedCPUSeconds: st.HarvestedCPU.Seconds(),
		Server:              c.ServerLatency.Summary(),
		TLA:                 c.TLALatency.Summary(),
		Preemptions:         st.Preemptions,
		FailureRequeues:     st.FailureRequeues,
		Placements:          len(sched.Placements()),
		Series:              smp.tracks(),
	}
	if span > 0 {
		p.Throughput = float64(st.TasksCompleted) / span.Seconds()
	}
	return p
}

// syntheticHarvestKey marks a synthetic-backlog frontier cell as
// interchangeable across experiments: harvest-frontier and the
// trace-replay comparison both need the same seeded simulation, so the
// registry runs it once and shares the result.
func syntheticHarvestKey(policy string) string {
	return "harvest-synthetic/policy=" + policy
}

// harvestScenarioCost estimates one frontier cell: the primary trace
// fans out over the columns like Fig. 9, plus the batch backlog's CPU
// demand (in query-equivalents, one task-second ≈ one-ms query × 1000).
func harvestScenarioCost(scale HarvestScale) float64 {
	return float64(scale.Queries)*float64(scale.Columns) +
		1000*float64(scale.Jobs*scale.TasksPerJob)*scale.TaskWork.Seconds()
}

// harvestCells lists one cell per placement policy.
func harvestCells(scale HarvestScale) []Cell {
	var cells []Cell
	for _, policy := range harvest.PolicyNames() {
		cells = append(cells, Cell{
			Name: "policy=" + policy,
			Key:  syntheticHarvestKey(policy),
			Cost: harvestScenarioCost(scale),
			Run:  func() any { return runHarvestScenario(scale, policy) },
		})
	}
	return cells
}

// assembleHarvestFrontier folds cell results (harvestCells order) into
// the frontier.
func assembleHarvestFrontier(scale HarvestScale, results []any) HarvestFrontier {
	f := HarvestFrontier{Scale: scale}
	for _, r := range results {
		f.Points = append(f.Points, r.(HarvestPoint))
	}
	return f
}

// Table renders the frontier.
func (f HarvestFrontier) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Batch-harvest frontier — %d machines (%d hot), %d×%d tasks of %v CPU each\n",
		2*f.Scale.Columns, f.Scale.Hotspots, f.Scale.Jobs, f.Scale.TasksPerJob, f.Scale.TaskWork)
	fmt.Fprintf(&b, "%-14s %6s %8s %9s  %8s %8s  %8s %8s  %6s %7s %7s\n",
		"policy", "tasks", "tasks/s", "cpu-sec", "srv-p99", "srv-p50", "tla-p99", "tla-p50", "place", "preempt", "requeue")
	b.WriteString(strings.Repeat("-", 112) + "\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-14s %6d %8.2f %9.1f  %8.2f %8.2f  %8.2f %8.2f  %6d %7d %7d\n",
			p.Policy, p.TasksCompleted, p.Throughput, p.HarvestedCPUSeconds,
			p.Server.P99Ms, p.Server.P50Ms, p.TLA.P99Ms, p.TLA.P50Ms,
			p.Placements, p.Preemptions, p.FailureRequeues)
	}
	return b.String()
}
