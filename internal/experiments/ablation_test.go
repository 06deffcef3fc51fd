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

	// Every sweep point is keyed, and apart from the two points that
	// spell out a default (TestSpelledOutDefaultsShareKeys) unique.
	seen := map[string]string{}
	for _, cells := range [][]Cell{buffer, poll, holdoff} {
		for _, c := range cells[1:] {
			if c.Key == "" {
				t.Errorf("sweep cell %s unkeyed", c.Name)
			}
			if c.Name == "poll=0.1ms/qps=4000" || c.Name == "holdoff=1ms/qps=2000" {
				continue
			}
			if prev, dup := seen[c.Key]; dup {
				t.Errorf("cells %s and %s share key %q", prev, c.Name, c.Key)
			}
			seen[c.Key] = c.Name
		}
	}
}

// TestSpelledOutDefaultsShareKeys: a blind-isolation point that sets
// the poll or the holdoff to its default runs the simulation of the
// point that leaves it zero, so both carry one key and a registry run
// executes it once. ablation-poll's 0.1 ms point is Fig. 5's B=8 at
// 4,000 QPS, and ablation-holdoff's 1 ms point is Fig. 5's B=8 at
// 2,000 QPS.
func TestSpelledOutDefaultsShareKeys(t *testing.T) {
	reg, spec := DefaultRegistry(), TestSpec()
	key := func(exp, cell string) string {
		e, ok := reg.Get(exp)
		if !ok {
			t.Fatalf("%s not registered", exp)
		}
		for _, c := range e.Cells(spec) {
			if c.Name == cell {
				return c.Key
			}
		}
		t.Fatalf("%s has no cell %s", exp, cell)
		return ""
	}
	for _, pair := range [][2][2]string{
		{{"ablation-poll", "poll=0.1ms/qps=4000"}, {"fig5", "blind=8/qps=4000"}},
		{{"ablation-holdoff", "holdoff=1ms/qps=2000"}, {"fig5", "blind=8/qps=2000"}},
	} {
		a, b := key(pair[0][0], pair[0][1]), key(pair[1][0], pair[1][1])
		if a == "" || a != b {
			t.Errorf("%s/%s key %q, %s/%s key %q: want one shared key", pair[0][0], pair[0][1], a, pair[1][0], pair[1][1], b)
		}
	}
}
