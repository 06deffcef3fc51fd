package experiments

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func dummyExperiment(name string) Experiment {
	return Experiment{
		Name:     name,
		Describe: "dummy",
		Cells: func(ScaleSpec) []Cell {
			return []Cell{{Name: "only", Run: func() any { return 1 }}}
		},
		Assemble: func(_ ScaleSpec, _ []Cell, results []any) (any, Report) {
			return results[0], Report{Table: "t", Rows: []Row{{Cell: "only", Metrics: []Metric{{"v", 1}}}}}
		},
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(dummyExperiment("a")); err != nil {
		t.Fatalf("first register: %v", err)
	}
	if err := r.Register(dummyExperiment("a")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := r.Register(dummyExperiment("")); err == nil {
		t.Fatal("empty name accepted")
	}
	e := dummyExperiment("b")
	e.Cells = nil
	if err := r.Register(e); err == nil {
		t.Fatal("nil Cells accepted")
	}
	e = dummyExperiment("b")
	e.Assemble = nil
	if err := r.Register(e); err == nil {
		t.Fatal("nil Assemble accepted")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("names after failed registers = %v", got)
	}
}

func TestRegistrySelectFilter(t *testing.T) {
	r := DefaultRegistry()
	want := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "headline",
		"fig9", "fig10", "fullstack", "timeline", "harvest-frontier",
		"harvest-trace-frontier", "ablation-buffer", "ablation-poll",
		"ablation-holdoff"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry order = %v, want %v", got, want)
	}

	sel := r.Select(regexp.MustCompile(`fig[45]|headline`))
	var names []string
	for _, e := range sel {
		names = append(names, e.Name)
	}
	if want := []string{"fig4", "fig5", "headline"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("filtered selection = %v, want %v", names, want)
	}

	if got := len(r.Select(nil)); got != len(want) {
		t.Fatalf("nil filter selected %d experiments, want %d", got, len(want))
	}
	if _, ok := r.Get("fig9"); !ok {
		t.Fatal("Get(fig9) missed")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get(nope) hit")
	}
}

func TestExecuteEmptyAndPanic(t *testing.T) {
	r := NewRegistry()
	boom := dummyExperiment("boom")
	boom.Cells = func(ScaleSpec) []Cell {
		return []Cell{{Name: "boom", Run: func() any { panic("boom") }}}
	}
	r.MustRegister(boom)
	p, err := r.Plan(TestSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if runs, _ := p.Execute(nil, RunOptions{Workers: 4}, ""); len(runs) != 0 {
		t.Fatalf("empty run returned %v", runs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cell panic not propagated")
		}
	}()
	p.Execute([]int{0}, RunOptions{Workers: 2}, "")
}

func TestRunNoMatch(t *testing.T) {
	_, err := DefaultRegistry().Run(RunOptions{
		Spec:   TestSpec(),
		Filter: regexp.MustCompile(`^nothing-matches$`),
	})
	if err == nil {
		t.Fatal("no-match run did not error")
	}
	// The error must name the valid experiments so a typo'd filter is
	// diagnosable without a separate -list invocation.
	for _, want := range []string{"nothing-matches", "fig4", "harvest-frontier", "ablation-buffer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("no-match error missing %q: %v", want, err)
		}
	}
}

// tinySpec keeps the determinism test fast: a few thousand queries per
// single-machine cell and the reduced Fig. 9 topology.
func tinySpec() ScaleSpec {
	spec := TestSpec()
	spec.Name = "tiny"
	spec.Single = Scale{Queries: 3000, Warmup: 500, Seed: 7}
	spec.Cluster.Queries, spec.Cluster.Warmup = 1200, 200
	return spec
}

// TestParallelMatchesSequential is the registry's core guarantee: the
// same spec run at -workers 1 and -workers 8 yields identical
// SingleResults, tables, artifact rows and rendered report — the pool
// changes only the wall clock.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	filter := regexp.MustCompile(`^(fig4|fig9|headline)$`)
	var runs [2]RunResult
	for i, workers := range []int{1, 8} {
		res, err := DefaultRegistry().Run(RunOptions{Spec: tinySpec(), Workers: workers, Filter: filter})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		runs[i] = res
	}
	seq, par := runs[0], runs[1]
	// fig4 (6) + fig9 (3) + headline (2) = 11 logical cells, but
	// headline's standalone@2000 shares fig4's via its key → 10 runs.
	if seq.CellCount != par.CellCount || seq.CellCount != 10 {
		t.Fatalf("cell counts: seq %d, par %d, want 10", seq.CellCount, par.CellCount)
	}
	if seq.SharedCells != 1 || par.SharedCells != 1 {
		t.Fatalf("shared cells: seq %d, par %d, want 1", seq.SharedCells, par.SharedCells)
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
	if RenderMarkdown(seq) != RenderMarkdown(par) {
		t.Error("rendered reports differ between workers=1 and workers=8")
	}

	// Keyed dedup must not change numbers: the headline's standalone
	// cell, whose result the run shared from fig4's by key, equals a
	// fresh run of the cell itself.
	e, _ := DefaultRegistry().Get("headline")
	alone := e.Cells(tinySpec())[0]
	if got := seq.Value("headline").(SweepResult)[alone.Name]; !reflect.DeepEqual(got, alone.Run()) {
		t.Error("headline's shared standalone cell differs from running it alone")
	}
}

func TestOnCellSerializedAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	seen := map[string]bool{}
	spec := tinySpec()
	_, err := DefaultRegistry().Run(RunOptions{
		Spec:    spec,
		Workers: 4,
		Filter:  regexp.MustCompile(`^headline$`),
		OnCell: func(exp, cell string, elapsed time.Duration) {
			if elapsed <= 0 {
				t.Errorf("cell %s/%s reported non-positive elapsed", exp, cell)
			}
			seen[exp+"/"+cell] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"headline/standalone", "headline/colocated"} {
		if !seen[want] {
			t.Errorf("OnCell never saw %s (saw %v)", want, seen)
		}
	}
}

func TestRenderMarkdownShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res, err := DefaultRegistry().Run(RunOptions{
		Spec:    tinySpec(),
		Workers: 8,
		Filter:  regexp.MustCompile(`^(fig4|headline)$`),
	})
	if err != nil {
		t.Fatal(err)
	}
	md := RenderMarkdown(res)
	for _, want := range []string{
		"# PerfIso reproduction report",
		"## How to regenerate",
		"## Paper vs reproduced",
		"| Fig. 4 |",
		"| Headline |",
		"### fig4",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(md, "NaN") {
		t.Error("report contains NaN")
	}
}
