package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

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
// size and under the dispatch fleet.
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
	// size and the dispatch fleet cannot change them. Only the dispatch_*
	// counters, which count the fleet's own work, may differ.
	modes := [][]string{{"-workers", "1"}, {"-workers", "2"}, {"-dispatch", "2"}}
	var counts []map[string]float64
	dispatched := 0
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
			Stats    map[string]float64 `json:"stats"`
			Dispatch *struct {
				Units int `json:"units"`
			} `json:"dispatch"`
		}
		if err := json.Unmarshal(blob, &timing); err != nil {
			t.Fatal(err)
		}
		if timing.Dispatch != nil {
			dispatched = timing.Dispatch.Units
		}
		for _, name := range []string{"sim_events_pushed", "core_buffer_grows", "harvest_placements"} {
			if timing.Stats[name] == 0 {
				t.Errorf("%v: %s is 0 in %s", mode, name, blob)
			}
		}
		counts = append(counts, timing.Stats)
	}
	// Every accepted upload is counted, the one that completed the run
	// included.
	if got := counts[2]["dispatch_uploads"]; got == 0 || got != float64(dispatched) {
		t.Errorf("-dispatch 2 counted %v uploads, the coordinator accepted %d units", got, dispatched)
	}
	for i, c := range counts[1:] {
		for name, v := range counts[0] {
			if strings.HasPrefix(name, "dispatch_") && modes[i+1][0] == "-dispatch" {
				continue
			}
			if c[name] != v {
				t.Errorf("%s: %v with %v, %v with %v", name, v, modes[0], c[name], modes[i+1])
			}
		}
	}
}

// lockedBuffer lets the test read a subcommand's output while it is
// still running in a goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServeObservability is the dispatched acceptance run: serve with
// -trace, a 3-loop work fleet, a /metrics scrape that matches the
// final timing.json dispatch section, and a merged trace covering
// every executed unit.
func TestServeObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	tmp := t.TempDir()
	const filter = "^(fig10|headline)$"
	manifest := filepath.Join(tmp, "m.json")
	var out, errb bytes.Buffer
	if code := run([]string{"manifest", "-scale", "test", "-run", filter, "-o", manifest}, &out, &errb); code != 0 {
		t.Fatalf("manifest: exit %d, stderr: %s", code, errb.String())
	}

	sout, serr := &lockedBuffer{}, &lockedBuffer{}
	serveDone := make(chan int, 1)
	go func() {
		serveDone <- run([]string{"serve", "-manifest", manifest, "-addr", "127.0.0.1:0",
			"-linger", "2s", "-trace", "-pprof",
			"-results", filepath.Join(tmp, "out"), "-report", filepath.Join(tmp, "SERVED.md")},
			sout, serr)
	}()

	addrRE := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(sout.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case code := <-serveDone:
			t.Fatalf("serve exited early with %d, stderr: %s", code, serr.String())
		default:
		}
	}
	if addr == "" {
		t.Fatalf("serve never reported its address: %s", sout.String())
	}
	base := "http://" + addr

	// /metrics answers before any worker shows up, and pprof is
	// mounted on request.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	pre, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	if !strings.Contains(string(pre), "perfiso_dispatch_units_pending") {
		t.Errorf("metrics missing dispatch gauges:\n%s", pre)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}

	var wout, werrb bytes.Buffer
	if code := run([]string{"work", "-coordinator", base, "-name", "fleet", "-workers", "3", "-quiet"}, &wout, &werrb); code != 0 {
		t.Fatalf("work: exit %d, stderr: %s", code, werrb.String())
	}

	// The linger window keeps the server answering after the last
	// upload; scrape the terminal counter values.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	post, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metric := func(name string) float64 {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
		m := re.FindStringSubmatch(string(post))
		if m == nil {
			t.Fatalf("metric %s not exposed:\n%s", name, post)
		}
		var v float64
		fmt.Sscanf(m[1], "%g", &v)
		return v
	}
	units := metric("perfiso_dispatch_units")
	done := metric("perfiso_dispatch_units_done")
	claims := metric("perfiso_dispatch_claims_total")
	steals := metric("perfiso_dispatch_steals_total")
	expiries := metric("perfiso_dispatch_lease_expiries_total")
	stale := metric("perfiso_dispatch_stale_uploads_total")
	if units == 0 || done != units {
		t.Errorf("metrics: units=%v done=%v", units, done)
	}

	if code := <-serveDone; code != 0 {
		t.Fatalf("serve: exit %d, stderr: %s", code, serr.String())
	}

	var timing struct {
		Dispatch *struct {
			Units        int `json:"units"`
			Steals       int `json:"steals"`
			Requeues     int `json:"requeues"`
			StaleUploads int `json:"stale_uploads"`
			Workers      []struct {
				Claims int `json:"claims"`
			} `json:"workers"`
			UnitTimings []struct {
				Unit    string  `json:"unit"`
				Worker  string  `json:"worker"`
				Seconds float64 `json:"seconds"`
			} `json:"unit_timings"`
		} `json:"dispatch"`
	}
	blob, err := os.ReadFile(filepath.Join(tmp, "out", "test", "timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &timing); err != nil {
		t.Fatal(err)
	}
	if timing.Dispatch == nil {
		t.Fatalf("timing.json missing the dispatch section: %s", blob)
	}
	dt := timing.Dispatch
	totalClaims := 0
	for _, w := range dt.Workers {
		totalClaims += w.Claims
	}
	// The scrape happened after the last upload, so every counter is at
	// its terminal value — it must equal what timing.json recorded.
	if int(units) != dt.Units || int(claims) != totalClaims ||
		int(steals) != dt.Steals || int(expiries) != dt.Requeues || int(stale) != dt.StaleUploads {
		t.Errorf("metrics (units=%v claims=%v steals=%v expiries=%v stale=%v) disagree with timing.json %+v",
			units, claims, steals, expiries, stale, dt)
	}
	if len(dt.UnitTimings) != dt.Units {
		t.Errorf("unit_timings has %d rows, want %d", len(dt.UnitTimings), dt.Units)
	}

	// The merged trace covers every executed unit.
	spans := readTraceFile(t, filepath.Join(tmp, "out", "test", "trace.jsonl"))
	if len(spans) != dt.Units {
		t.Errorf("trace has %d spans, run executed %d units", len(spans), dt.Units)
	}
	seen := map[string]bool{}
	for _, s := range spans {
		if s.Unit == "" || s.Worker == "" || seen[s.Unit] {
			t.Errorf("bad or duplicate span: %+v", s)
		}
		seen[s.Unit] = true
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
