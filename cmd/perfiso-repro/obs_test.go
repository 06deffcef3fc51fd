package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfiso/internal/obs"
)

// readTraceFile loads and sanity-checks a trace.jsonl artifact.
func readTraceFile(t *testing.T, path string) []obs.Span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestStatsTraceByteIdentity is the observability determinism
// guarantee at the CLI: -stats and -trace change timing.json and add
// trace.jsonl but leave summary.json, cells.csv and the report
// byte-identical, and the -stats counters are the same at any pool
// size.
func TestStatsTraceByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	tmp := t.TempDir()
	const filter = "^(fig10|headline)$"
	var out, errb bytes.Buffer
	code := run([]string{"-scale", "test", "-run", filter, "-quiet", "-workers", "2",
		"-results", filepath.Join(tmp, "plain"), "-report", filepath.Join(tmp, "PLAIN.md")}, &out, &errb)
	if code != 0 {
		t.Fatalf("plain: exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	code = run([]string{"-scale", "test", "-run", filter, "-quiet", "-workers", "2", "-stats", "-trace",
		"-results", filepath.Join(tmp, "instr"), "-report", filepath.Join(tmp, "INSTR.md")}, &out, &errb)
	if code != 0 {
		t.Fatalf("instrumented: exit %d, stderr: %s", code, errb.String())
	}

	for _, f := range []string{"test/summary.json", "test/cells.csv"} {
		a, err := os.ReadFile(filepath.Join(tmp, "plain", f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(tmp, "instr", f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between plain and instrumented runs", f)
		}
	}
	a, _ := os.ReadFile(filepath.Join(tmp, "PLAIN.md"))
	b, _ := os.ReadFile(filepath.Join(tmp, "INSTR.md"))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Error("reports differ between plain and instrumented runs")
	}

	// The plain run must not grow a trace; the instrumented one must
	// cover every executed cell.
	if _, err := os.Stat(filepath.Join(tmp, "plain", "test", "trace.jsonl")); !os.IsNotExist(err) {
		t.Error("uninstrumented run wrote trace.jsonl")
	}
	var summary struct {
		CellCount int `json:"cell_count"`
	}
	blob, err := os.ReadFile(filepath.Join(tmp, "instr", "test", "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &summary); err != nil {
		t.Fatal(err)
	}
	spans := readTraceFile(t, filepath.Join(tmp, "instr", "test", "trace.jsonl"))
	if len(spans) != summary.CellCount || summary.CellCount == 0 {
		t.Errorf("trace has %d spans, run executed %d cells", len(spans), summary.CellCount)
	}
	for _, s := range spans {
		if s.Experiment == "" || s.Cell == "" || s.Worker == "" {
			t.Errorf("span missing labels: %+v", s)
		}
	}

	// timing.json carries the folded stats, phase and top-cell
	// breakdowns only when instrumented.
	var timing struct {
		Stats *struct {
			SimEventsPushed uint64 `json:"sim_events_pushed"`
			RNGDraws        uint64 `json:"rng_draws"`
		} `json:"stats"`
		Phases []struct {
			Phase   string  `json:"phase"`
			Seconds float64 `json:"seconds"`
		} `json:"phases"`
		TopCells []struct {
			Cell    string  `json:"cell"`
			Seconds float64 `json:"seconds"`
		} `json:"top_cells"`
	}
	blob, err = os.ReadFile(filepath.Join(tmp, "instr", "test", "timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &timing); err != nil {
		t.Fatal(err)
	}
	if timing.Stats == nil || timing.Stats.SimEventsPushed == 0 || timing.Stats.RNGDraws == 0 {
		t.Errorf("instrumented timing.json missing live stats: %s", blob)
	}
	if len(timing.Phases) == 0 || len(timing.TopCells) == 0 {
		t.Errorf("instrumented timing.json missing breakdowns: %s", blob)
	}
	for i := 1; i < len(timing.TopCells); i++ {
		if timing.TopCells[i].Seconds > timing.TopCells[i-1].Seconds {
			t.Errorf("top_cells not sorted by cost: %s", blob)
		}
	}
	blob, err = os.ReadFile(filepath.Join(tmp, "plain", "test", "timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte(`"stats"`)) || bytes.Contains(blob, []byte(`"top_cells"`)) {
		t.Errorf("uninstrumented timing.json grew stats sections: %s", blob)
	}

	// Each cell folds its own counters once it finishes, so the pool
	// size cannot change them.
	modes := [][]string{{"-workers", "1"}, {"-workers", "2"}}
	var counts []map[string]float64
	for _, mode := range modes {
		dir := filepath.Join(tmp, "stats"+strings.Join(mode, ""))
		args := append([]string{"run", "-scale", "test", "-run", "^harvest-frontier$", "-quiet", "-stats",
			"-results", dir, "-report", ""}, mode...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", mode, code, errb.String())
		}
		blob, err := os.ReadFile(filepath.Join(dir, "test", "timing.json"))
		if err != nil {
			t.Fatal(err)
		}
		var timing struct {
			Stats map[string]float64 `json:"stats"`
		}
		if err := json.Unmarshal(blob, &timing); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"sim_events_pushed", "core_buffer_grows", "harvest_placements"} {
			if timing.Stats[name] == 0 {
				t.Errorf("%v: %s is 0 in %s", mode, name, blob)
			}
		}
		counts = append(counts, timing.Stats)
	}
	for name, v := range counts[0] {
		if counts[1][name] != v {
			t.Errorf("%s: %v with %v, %v with %v", name, v, modes[0], counts[1][name], modes[1])
		}
	}
}

// TestShardTraceMergeReassembly: shards run with -trace embed spans in
// their partials, and the merge reassembles them into one run-wide
// trace.jsonl.
func TestShardTraceMergeReassembly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	tmp := t.TempDir()
	shards := filepath.Join(tmp, "shards")
	const filter = "^(fig10|headline)$"
	for i := 0; i < 2; i++ {
		var out, errb bytes.Buffer
		code := run([]string{"run", "-scale", "test", "-run", filter, "-quiet", "-trace",
			"-shard", fmt.Sprintf("%d/2", i),
			"-partial", filepath.Join(shards, fmt.Sprintf("s%d.json", i))}, &out, &errb)
		if code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", i, code, errb.String())
		}
	}
	var out, errb bytes.Buffer
	code := run([]string{"merge", "-scale", "test", "-run", filter, "-shards", shards,
		"-results", filepath.Join(tmp, "merged"), "-report", filepath.Join(tmp, "MERGED.md")}, &out, &errb)
	if code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, errb.String())
	}
	var summary struct {
		CellCount int `json:"cell_count"`
	}
	blob, err := os.ReadFile(filepath.Join(tmp, "merged", "test", "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &summary); err != nil {
		t.Fatal(err)
	}
	spans := readTraceFile(t, filepath.Join(tmp, "merged", "test", "trace.jsonl"))
	if len(spans) != summary.CellCount || summary.CellCount == 0 {
		t.Errorf("merged trace has %d spans, run covers %d cells", len(spans), summary.CellCount)
	}
	workers := map[string]bool{}
	for _, s := range spans {
		workers[s.Worker] = true
	}
	if len(workers) != 2 {
		t.Errorf("merged trace attributes spans to %d shards, want 2: %v", len(workers), workers)
	}
}
