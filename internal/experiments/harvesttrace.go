package experiments

import (
	"fmt"
	"strings"

	"perfiso/internal/harvest"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// The trace-replay frontier re-runs the batch-harvest frontier with the
// secondary workload replayed from a generated batch-task trace instead
// of a synthetic backlog dumped at time zero: submissions arrive in bursts
// over the run and per-task CPU demand is heavy-tailed, the §5.3
// production regime the parameter sweep cannot produce. Each placement
// policy is measured under both sources, so the table answers whether a
// policy's frontier position survives realistic batch demand.

// DefaultBatchTraceConfig sizes the replayed secondary for the
// test-scale frontier run: total CPU demand comparable to the
// synthetic backlog (~96 CPU-seconds), submitted in bursts across the
// first half of the 3 s primary trace, with a sixth of the tasks
// disk-bound.
func DefaultBatchTraceConfig() workload.BatchTraceConfig {
	return workload.BatchTraceConfig{
		Tasks:        48,
		Rate:         32,
		BurstMean:    6,
		MeanCPU:      2 * sim.Second,
		TailAlpha:    1.6,
		DiskFraction: 0.17,
		MeanOps:      1500,
		Seed:         2017,
	}
}

// PaperBatchTraceConfig scales the replayed secondary to the full
// Fig. 9 topology and its 200k-query primary trace.
func PaperBatchTraceConfig() workload.BatchTraceConfig {
	return workload.BatchTraceConfig{
		Tasks:        256,
		Rate:         16,
		BurstMean:    8,
		MeanCPU:      4 * sim.Second,
		TailAlpha:    1.6,
		DiskFraction: 0.25,
		MeanOps:      4000,
		Seed:         2017,
	}
}

// HarvestTracePoint is one (policy, source) cell of the comparison.
type HarvestTracePoint struct {
	// Source is "synthetic" (the backlog of HarvestScale) or "trace"
	// (the replayed batch trace).
	Source string
	HarvestPoint
}

// HarvestTraceFrontier is the full policy × source comparison.
type HarvestTraceFrontier struct {
	Scale  HarvestScale
	Batch  workload.BatchTraceConfig
	Points []HarvestTracePoint
}

// runHarvestTraceScenario runs one frontier cell with the secondary
// replayed from the generated batch trace.
func runHarvestTraceScenario(scale HarvestScale, batch workload.BatchTraceConfig, policy string) HarvestPoint {
	trace := workload.GenerateBatchTrace(batch)
	return runHarvestScenarioWith(scale, policy, func(sched *harvest.Scheduler) {
		feeder, err := harvest.NewTraceFeeder(sched, trace)
		if err != nil {
			panic(err)
		}
		feeder.Start()
	})
}

const (
	sourceSynthetic = "synthetic"
	sourceTrace     = "trace"
)

// harvestTraceCells lists two cells per placement policy — the
// synthetic backlog (shared by key with the harvest-frontier
// experiment, so it is simulated once per run) and the trace replay.
func harvestTraceCells(s ScaleSpec) []Cell {
	var cells []Cell
	for _, policy := range harvest.PolicyNames() {
		cells = append(cells,
			Cell{
				Name: "policy=" + policy + "/src=" + sourceSynthetic,
				Key:  syntheticHarvestKey(policy),
				Cost: harvestScenarioCost(s.Harvest),
				Run:  func() any { return runHarvestScenario(s.Harvest, policy) },
			},
			Cell{
				Name: "policy=" + policy + "/src=" + sourceTrace,
				Cost: harvestScenarioCost(s.Harvest),
				Run:  func() any { return runHarvestTraceScenario(s.Harvest, s.BatchTrace, policy) },
			})
	}
	return cells
}

// assembleHarvestTraceFrontier folds cell results (harvestTraceCells
// order: synthetic, trace per policy) into the comparison.
func assembleHarvestTraceFrontier(s ScaleSpec, cells []Cell, results []any) HarvestTraceFrontier {
	f := HarvestTraceFrontier{Scale: s.Harvest, Batch: s.BatchTrace}
	for i, r := range results {
		src := sourceSynthetic
		if strings.HasSuffix(cells[i].Name, "/src="+sourceTrace) {
			src = sourceTrace
		}
		f.Points = append(f.Points, HarvestTracePoint{Source: src, HarvestPoint: r.(HarvestPoint)})
	}
	return f
}

// Point returns the cell for a (policy, source) pair.
func (f HarvestTraceFrontier) Point(policy, source string) (HarvestTracePoint, bool) {
	for _, p := range f.Points {
		if p.Policy == policy && p.Source == source {
			return p, true
		}
	}
	return HarvestTracePoint{}, false
}

// Table renders the comparison.
func (f HarvestTraceFrontier) Table() string {
	st := workload.BatchTraceStats(workload.GenerateBatchTrace(f.Batch))
	var b strings.Builder
	fmt.Fprintf(&b, "Harvest frontier, synthetic backlog vs replayed batch trace — %d machines (%d hot)\n",
		2*f.Scale.Columns, f.Scale.Hotspots)
	fmt.Fprintf(&b, "trace: %d tasks (%d disk-bound) over %.2fs, CPU mean %.2fs / max %.2fs (Pareto α=%.1f)\n",
		st.Tasks, st.DiskTasks, st.Span.Seconds(),
		st.MeanCPU.Seconds(), st.MaxCPU.Seconds(), f.Batch.TailAlpha)
	fmt.Fprintf(&b, "%-14s %-10s %6s %8s %9s  %8s %8s  %6s %7s\n",
		"policy", "secondary", "tasks", "tasks/s", "cpu-sec", "srv-p99", "tla-p99", "place", "preempt")
	b.WriteString(strings.Repeat("-", 96) + "\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-14s %-10s %6d %8.2f %9.1f  %8.2f %8.2f  %6d %7d\n",
			p.Policy, p.Source, p.TasksCompleted, p.Throughput, p.HarvestedCPUSeconds,
			p.Server.P99Ms, p.TLA.P99Ms, p.Placements, p.Preemptions)
	}
	return b.String()
}
