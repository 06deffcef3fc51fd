package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfiso/internal/experiments"
	"perfiso/internal/lintrules"
	"perfiso/internal/shard"
	"perfiso/internal/sim"
)

// tinySpec is TestSpec cut down to a few seconds of host time.
func tinySpec() experiments.ScaleSpec {
	spec := experiments.TestSpec()
	spec.Single.Queries, spec.Single.Warmup = 2000, 200
	spec.Cluster.Queries, spec.Cluster.Warmup = 1000, 200
	spec.Harvest.Queries, spec.Harvest.Warmup = 2000, 200
	spec.Timeline.Duration = 2 * sim.Second
	return spec
}

// tinyWorkloads are the five workloads at 1–2 cells of ≤2k queries.
func tinyWorkloads() []workload {
	return []workload{
		singleWorkload("colocated", singleSpec{cells: 2, queries: 2000, warmup: 200, colocated: true}),
		singleWorkload("standalone", singleSpec{cells: 2, queries: 2000, warmup: 200}),
		harvestWorkload("cluster-harvest", harvestSpec{cells: 2, queries: 2000, warmup: 200}),
		singleWorkload("colocated-traced", singleSpec{cells: 1, queries: 2000, warmup: 200, colocated: true, traced: true}),
		reproWorkload("repro-test", tinySpec()),
	}
}

// runOnce measures cfg and parses the printed result line.
func runOnce(t *testing.T, cfg config) (result, output, string) {
	t.Helper()
	out, err := measure(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload.name, err)
	}
	var buf bytes.Buffer
	if err := out.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", cfg.workload.name, err, buf.String())
	}
	return res, out, buf.String()
}

func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	outcomes := map[string]string{
		"colocated":        "drop_pct,harvested_cpu_pct",
		"standalone":       "drop_pct",
		"cluster-harvest":  "batch_tasks_per_s",
		"colocated-traced": "drop_pct,harvested_cpu_pct",
		"repro-test":       "batch_tasks_per_s,drop_pct,harvested_cpu_pct,paper_err_pct,paper_misses",
	}
	tiny := tinyWorkloads()
	if got, want := len(tiny), len(workloads()); got != want {
		t.Fatalf("%d tiny workloads, %d real ones", got, want)
	}
	for i, w := range tiny {
		if w.name != workloads()[i].name {
			t.Fatalf("tiny workload %d is %s, real one %s", i, w.name, workloads()[i].name)
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, trace: trace, work: t.TempDir()}
			res, out, printed := runOnce(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed %d of %d\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, printed)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", w.name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if got := strings.Join(sortedKeys(out.meta.Outcomes), ","); got != outcomes[w.name] {
				t.Errorf("%s trace=%v: outcomes %s, want %s", w.name, trace, got, outcomes[w.name])
			}
			for name := range out.meta.Outcomes {
				if !strings.Contains(printed, name) {
					t.Errorf("%s trace=%v: outcome %s not printed", w.name, trace, name)
				}
			}
		}
	}
}

// TestGoldenNegativeControl runs repro-test against goldens made by
// the same pipeline: they match, and one flipped byte fails an op.
func TestGoldenNegativeControl(t *testing.T) {
	spec := tinySpec()
	reg := experiments.DefaultRegistry()
	m, err := shard.Build(reg, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := reg.Run(experiments.RunOptions{Spec: spec, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res.ManifestHash = m.Hash
	golden := t.TempDir()
	p := newPass()
	if err := writeRepro(golden, res, &p, nil); err != nil {
		t.Fatal(err)
	}

	cfg := config{workload: reproWorkload("repro-test", spec), seed: goldenSeed, golden: golden, work: t.TempDir()}
	ok, _, printed := runOnce(t, cfg)
	if !ok.Correct || ok.Failed != 0 {
		t.Fatalf("matching goldens: failed %d of %d\n%s", ok.Failed, ok.Attempted, printed)
	}

	path := filepath.Join(golden, "results", spec.Name, "cells.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, _, printed := runOnce(t, cfg)
	if bad.Correct || bad.Failed != 1 || bad.Attempted != ok.Attempted {
		t.Fatalf("flipped golden byte: correct=%v failed %d of %d (clean run attempted %d)\n%s",
			bad.Correct, bad.Failed, bad.Attempted, ok.Attempted, printed)
	}
	if !strings.Contains(printed, "FAIL golden results/test/cells.csv") {
		t.Errorf("failure does not name the file:\n%s", printed)
	}
}

func TestPanickingCellIsAFailedOp(t *testing.T) {
	ok := func(*spanLog, int) cellOut { return cellOut{result: 1, sim: map[string]float64{"x": 2}} }
	p := runPool([]cell{
		{name: "a", run: ok},
		{name: "b", run: func(*spanLog, int) cellOut { panic("invariant") }},
		{name: "c", run: ok},
	}, nil)
	if p.attempted != 3 || p.failed != 1 || !strings.Contains(p.failures[0], "b: panic: invariant") {
		t.Fatalf("attempted %d failed %d failures %q", p.attempted, p.failed, p.failures)
	}
	if got, _ := p.value("x"); got != 2 {
		t.Errorf("sim median over surviving cells = %v, want 2", got)
	}
}

func TestSelfTimesAttribution(t *testing.T) {
	f, err := os.Open("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := selfTimes(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim.self_s":         0.05, // malloc under Engine.At, plus a generic heap frame
		"cpumodel.self_s":    0.02, // inlined frame
		"experiments.self_s": 1.5,  // sort called from experiments
		"simtrace.self_s":    0.3,
		"bench.self_s":       0.01, // sha256 under main.*
		"runtime.bg_s":       0.06, // GC worker and sweeper: no perfiso frame
	}
	if len(got) != len(want) {
		t.Errorf("got layers %v, want %v", got, want)
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	for frame, layer := range map[string]string{
		"perfiso/internal/simtrace.New":                   "simtrace",
		"perfiso/internal/sim.(*Engine).Run":              "sim",
		"perfiso/internal/cpumodel.CPUSet.Has (inline)":   "cpumodel",
		"main.runPool.func1":                              "bench",
		"runtime.mallocgc":                                "",
		"github.com/perfiso/internal/sim.(*Engine).Run":   "",
		"perfiso/internal/experiments/sub.Func (partial)": "experiments",
	} {
		if got := layerOf(frame); got != layer {
			t.Errorf("layerOf(%q) = %q, want %q", frame, got, layer)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s != (summary{2.75, 5.5, 8.25}) {
		t.Errorf("got %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	lower := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "tput", Unit: "1/s", Better: "higher", Bound: 0.1}
	simulated := metricDef{Name: "primary_p99_ms", Unit: "ms", Better: "lower", Bound: 0.1, Sim: true}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"clear win", lower, steady, scale(steady, 0.8), "better"},
		{"clear win, higher is better", higher, steady, scale(steady, 1.25), "better"},
		{"within bound", lower, steady, scale(steady, 1.03), "within bound"},
		{"unresolved wide spread", lower, wide, scale(wide, 0.97), "unresolved"},
		{"simulated, identical per seed despite a wide spread", simulated, wide, wide, "within bound"},
		{"simulated, any worse median", simulated, steady, scale(steady, 1.001), "worse"},
		{"simulated, better on every seed", simulated, wide, scale(wide, 0.99), "better"},
		{"regression", lower, steady, scale(steady, 1.3), "worse"},
		{"regression, higher is better", higher, steady, scale(steady, 0.7), "worse"},
	} {
		if got := judge(c.d, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCommandExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64, wall float64, digest string, failed int) string {
		out := output{
			meta: meta{Workload: "colocated", Seed: seed, Trace: name[0] == 't', SimDigest: digest,
				Outcomes: map[string]float64{"drop_pct": 1}},
			result: result{Correct: failed == 0, Attempted: 2, Failed: failed,
				Metrics: map[string]metric{"wall_s": {wall, "s"}}},
		}
		var buf bytes.Buffer
		if err := out.print(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var a, same, slow, drift, failing, reseeded, traced []string
	for i := uint64(0); i < 5; i++ {
		w := 10 + 0.01*float64(i)
		d := fmt.Sprint("sha256:", i)
		a = append(a, write(fmt.Sprint("a", i), i, w, d, 0))
		same = append(same, write(fmt.Sprint("s", i), i, w+0.005, d, 0))
		slow = append(slow, write(fmt.Sprint("b", i), i, 1.5*w, d, 0))
		drift = append(drift, write(fmt.Sprint("d", i), i, w, d+"x", 0))
		failing = append(failing, write(fmt.Sprint("f", i), i, w, d, int(i%2)))
		reseeded = append(reseeded, write(fmt.Sprint("r", i), i+1, w, d, 0))
		traced = append(traced, write(fmt.Sprint("t", i), i, w, d, 0))
	}
	compare := func(b []string) (int, string) {
		var out bytes.Buffer
		code := run(append(append(append([]string{"compare"}, a...), "--"), b...), &out, &out)
		return code, out.String()
	}
	for _, c := range []struct {
		name string
		b    []string
		code int
		says string
	}{
		{"unchanged", same, 0, "within bound"},
		{"slower", slow, 1, "worse"},
		{"simulated outcomes changed", drift, 1, "sim_digest differs at seed 0"},
		{"more failed ops", failing, 1, "the change failed 2 ops, the parent 0"},
		{"different seeds", reseeded, 2, "run both on the same seeds"},
		{"traced runs", traced, 2, "compare reads untraced runs"},
	} {
		code, out := compare(c.b)
		if code != c.code || !strings.Contains(out, c.says) {
			t.Errorf("%s: exit %d, want %d with %q\n%s", c.name, code, c.code, c.says, out)
		}
	}
	if code := run([]string{"compare", a[0]}, io.Discard, io.Discard); code != 2 {
		t.Errorf("compare without --: exit %d, want 2", code)
	}
}

// TestBenchmarkJSONDeclaresThisProgram keeps BENCHMARK.json and the
// program's own workload and metric tables in step.
func TestBenchmarkJSONDeclaresThisProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		name          string
		file, program []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEndMetrics}, {"per_layer", bj.PerLayer, perLayerMetrics}} {
		file, _ := json.Marshal(c.file)
		program, _ := json.Marshal(c.program)
		if !bytes.Equal(file, program) {
			t.Errorf("%s %s\nprogram has %s", c.name, file, program)
		}
	}
	var setup metricDef
	for _, d := range bj.EndToEnd {
		if d.Name == "setup_s" {
			setup = d
		}
	}
	for _, d := range bj.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("%s bound %v: want (0, 0.25] and no larger than setup_s's %v", d.Name, d.Bound, setup.Bound)
		}
	}
	if strings.Join(bj.Paths, ",") != "bench" || strings.Join(bj.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %q paths %q", bj.Command, bj.Paths)
	}
}

// TestBenchLintsClean runs the repository's determinism linter over
// this module, which the root module's `./...` does not reach: every
// wall-clock read here must carry its //perfiso:allow annotation.
func TestBenchLintsClean(t *testing.T) {
	conf, err := lintrules.LoadConfig("../lint.conf")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lintrules.RunPatterns(".", conf, lintrules.Analyzers(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
	}
}
