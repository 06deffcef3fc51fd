package experiments

import (
	"regexp"
	"testing"
)

// TestHarvestFrontier is the acceptance gate for the batch-harvest
// scheduler: on the default cluster config, the harvest-aware policy
// must match or beat round-robin batch throughput at equal-or-lower
// primary P99.
func TestHarvestFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier run is seconds-long; skipped in -short")
	}
	res, err := DefaultRegistry().Run(RunOptions{Spec: TestSpec(), Filter: regexp.MustCompile(`^harvest-frontier$`)})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Value("harvest-frontier").(HarvestFrontier)
	if len(f.Points) != 3 {
		t.Fatalf("got %d policy points, want 3", len(f.Points))
	}
	byName := map[string]HarvestPoint{}
	for _, p := range f.Points {
		byName[p.Policy] = p
	}
	rr, ok := byName["round-robin"]
	if !ok {
		t.Fatal("no round-robin point")
	}
	ha, ok := byName["harvest-aware"]
	if !ok {
		t.Fatal("no harvest-aware point")
	}
	if ha.TasksCompleted < rr.TasksCompleted {
		t.Fatalf("harvest-aware completed %d tasks < round-robin's %d",
			ha.TasksCompleted, rr.TasksCompleted)
	}
	if ha.Server.P99Ms > rr.Server.P99Ms*1.001 {
		t.Fatalf("harvest-aware server P99 %.2f ms > round-robin %.2f ms",
			ha.Server.P99Ms, rr.Server.P99Ms)
	}
	if ha.TLA.P99Ms > rr.TLA.P99Ms*1.001 {
		t.Fatalf("harvest-aware TLA P99 %.2f ms > round-robin %.2f ms",
			ha.TLA.P99Ms, rr.TLA.P99Ms)
	}
	for _, p := range f.Points {
		if p.TasksCompleted == 0 || p.Throughput <= 0 {
			t.Fatalf("policy %s harvested nothing: %+v", p.Policy, p)
		}
		if p.HarvestedCPUSeconds <= 0 {
			t.Fatalf("policy %s reports no harvested CPU", p.Policy)
		}
	}
	if len(f.Table()) == 0 {
		t.Fatal("empty table")
	}
}
