package experiments

import (
	"reflect"
	"regexp"
	"testing"

	"perfiso/internal/sim"
)

// traceFrontierSpec shrinks the trace-replay frontier for tests: a
// 4-column cluster, a short primary trace, and a small replayed batch
// trace whose span fits inside the run.
func traceFrontierSpec() ScaleSpec {
	spec := TestSpec()
	spec.Name = "tiny-trace"
	spec.Harvest.Columns = 4
	spec.Harvest.Queries, spec.Harvest.Warmup = 2400, 400
	spec.Harvest.Jobs, spec.Harvest.TasksPerJob = 3, 4
	spec.Harvest.TaskWork = 1 * sim.Second
	spec.Harvest.Hotspots = 3
	spec.BatchTrace.Tasks = 12
	spec.BatchTrace.Rate = 24
	spec.BatchTrace.MeanCPU = 1 * sim.Second
	return spec
}

// TestHarvestTraceFrontierShape checks the trace-replay comparison
// produces one point per (policy, source) pair, that trace-driven
// cells actually complete replayed work, and that the primary's tail
// stays intact under the replayed secondary.
func TestHarvestTraceFrontierShape(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier run is seconds-long; skipped in -short")
	}
	res, err := DefaultRegistry().Run(RunOptions{
		Spec: traceFrontierSpec(), Filter: regexp.MustCompile(`^harvest-trace-frontier$`),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Value("harvest-trace-frontier").(HarvestTraceFrontier)
	if len(f.Points) != 6 {
		t.Fatalf("got %d points, want 3 policies × 2 sources", len(f.Points))
	}
	for _, policy := range []string{"round-robin", "least-loaded", "harvest-aware"} {
		synth, ok := f.Point(policy, "synthetic")
		if !ok {
			t.Fatalf("no synthetic point for %s", policy)
		}
		traced, ok := f.Point(policy, "trace")
		if !ok {
			t.Fatalf("no trace point for %s", policy)
		}
		if synth.TasksCompleted == 0 || traced.TasksCompleted == 0 {
			t.Fatalf("%s harvested nothing: synthetic %d, trace %d",
				policy, synth.TasksCompleted, traced.TasksCompleted)
		}
		if traced.HarvestedCPUSeconds <= 0 {
			t.Fatalf("%s trace replay consumed no CPU", policy)
		}
		// The replayed secondary must not blow up the primary's tail
		// relative to the synthetic backlog: blind isolation governs
		// both the same way.
		if traced.Server.P99Ms > 2*synth.Server.P99Ms {
			t.Fatalf("%s server P99 %.2f ms under trace vs %.2f synthetic",
				policy, traced.Server.P99Ms, synth.Server.P99Ms)
		}
	}
	if len(f.Table()) == 0 {
		t.Fatal("empty table")
	}
}

// TestHarvestTraceFrontierDeterministicAcrossWorkers is the acceptance
// gate for the registered experiment: the same spec run at workers=1
// and workers=8 must yield bit-identical values, reports and artifact
// rows, and its synthetic cells must be shared with harvest-frontier
// by key instead of re-simulated.
func TestHarvestTraceFrontierDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	filter := regexp.MustCompile(`^(harvest-frontier|harvest-trace-frontier)$`)
	var runs [2]RunResult
	for i, workers := range []int{1, 8} {
		res, err := DefaultRegistry().Run(RunOptions{
			Spec: traceFrontierSpec(), Workers: workers, Filter: filter,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		runs[i] = res
	}
	seq, par := runs[0], runs[1]
	// harvest-frontier (3) + harvest-trace-frontier (6) = 9 logical
	// cells; the 3 synthetic cells are shared by key → 6 executions.
	if seq.CellCount != 6 || par.CellCount != 6 {
		t.Fatalf("cell counts: seq %d, par %d, want 6", seq.CellCount, par.CellCount)
	}
	if seq.SharedCells != 3 || par.SharedCells != 3 {
		t.Fatalf("shared cells: seq %d, par %d, want 3", seq.SharedCells, par.SharedCells)
	}
	for i := range seq.Experiments {
		s, p := seq.Experiments[i], par.Experiments[i]
		if !reflect.DeepEqual(s.Value, p.Value) {
			t.Errorf("%s: typed values differ between workers=1 and workers=8", s.Name)
		}
		if !reflect.DeepEqual(s.Report, p.Report) {
			t.Errorf("%s: reports differ between workers=1 and workers=8", s.Name)
		}
	}

	// The shared synthetic cells must carry the exact same numbers into
	// both experiments.
	hf := seq.Value("harvest-frontier").(HarvestFrontier)
	htf := seq.Value("harvest-trace-frontier").(HarvestTraceFrontier)
	for _, p := range hf.Points {
		synth, ok := htf.Point(p.Policy, "synthetic")
		if !ok {
			t.Fatalf("no shared synthetic point for %s", p.Policy)
		}
		if !reflect.DeepEqual(p, synth.HarvestPoint) {
			t.Errorf("%s: shared synthetic cell differs between experiments", p.Policy)
		}
	}
}
