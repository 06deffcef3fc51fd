package experiments

import "testing"

// TestAblationSweepCellsShareBaselines: the three ablation sweeps'
// standalone baselines carry the same keys as the figure-family
// baselines at matching load, so a registry run (or a shard plan, or a
// dispatched run) executes each baseline exactly once. Cell
// construction is side-effect free, so this runs no simulations.
func TestAblationSweepCellsShareBaselines(t *testing.T) {
	reg, spec := DefaultRegistry(), TestSpec()
	cells := func(name string) []Cell {
		e, ok := reg.Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		return e.Cells(spec)
	}
	buffer, poll, holdoff := cells("ablation-buffer"), cells("ablation-poll"), cells("ablation-holdoff")
	base := cells("fig5")[:2] // the standalone baselines, 2,000 then 4,000 QPS

	if len(buffer) != 7 || len(poll) != 5 || len(holdoff) != 5 {
		t.Fatalf("sweep sizes: buffer %d, poll %d, holdoff %d", len(buffer), len(poll), len(holdoff))
	}
	if k := poll[0].Key; k == "" || k != buffer[0].Key || k != base[1].Key {
		t.Errorf("poll baseline key %q not shared (buffer %q, figs %q)", k, buffer[0].Key, base[1].Key)
	}
	if k := holdoff[0].Key; k == "" || k != base[0].Key {
		t.Errorf("holdoff baseline key %q not shared with figs baseline %q", k, base[0].Key)
	}

	// Every sweep point is keyed and unique — no accidental collision
	// with the default-parameter blind cells of Figs. 5/8.
	seen := map[string]string{}
	for _, cells := range [][]Cell{buffer, poll, holdoff} {
		for _, c := range cells[1:] {
			if c.Key == "" {
				t.Errorf("sweep cell %s unkeyed", c.Name)
			}
			if prev, dup := seen[c.Key]; dup {
				t.Errorf("cells %s and %s share key %q", prev, c.Name, c.Key)
			}
			seen[c.Key] = c.Name
		}
	}
}
