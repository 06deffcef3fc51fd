package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"perfiso/internal/stats"
)

// The calibration tests assert the paper's published *shape bands* at
// test scale. Each cell is expensive, so the nine single-machine sweeps
// run once through the registry at TestSpec — the scale RESULTS.md is
// committed at — and every test reads that shared run by cell name.
var (
	sweepOnce sync.Once
	sweepRun  RunResult
	sweepErr  error
)

// allSweeps is every declared single-machine sweep, in registry order.
func allSweeps() []sweep {
	return append(append([]sweep(nil), paperSweeps...), ablationSweeps...)
}

// sweepResults returns the shared test-scale run of every sweep.
func sweepResults(t *testing.T) RunResult {
	t.Helper()
	if testing.Short() {
		t.Skip("calibration runs are long; skipped with -short")
	}
	sweepOnce.Do(func() {
		var names []string
		for _, sw := range allSweeps() {
			names = append(names, sw.name)
		}
		sweepRun, sweepErr = DefaultRegistry().Run(RunOptions{
			Spec:   TestSpec(),
			Filter: regexp.MustCompile("^(" + strings.Join(names, "|") + ")$"),
		})
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepRun
}

// sweepCells returns one sweep's cells from the shared run.
func sweepCells(t *testing.T, name string) SweepResult {
	t.Helper()
	return sweepResults(t).Value(name).(SweepResult)
}

func TestFig4StandaloneBands(t *testing.T) {
	f4 := sweepCells(t, "fig4")
	for _, qps := range []int{2000, 4000} {
		r := f4[fmt.Sprintf("bully=standalone/qps=%d", qps)]
		// §6.1.1: P50 ≈ 4 ms, P99 ≈ 12 ms at both loads.
		if r.Latency.P50Ms < 2.5 || r.Latency.P50Ms > 6 {
			t.Errorf("qps=%v: standalone P50 = %.2f ms, want ≈4", qps, r.Latency.P50Ms)
		}
		if r.Latency.P99Ms < 8 || r.Latency.P99Ms > 16 {
			t.Errorf("qps=%v: standalone P99 = %.2f ms, want ≈12", qps, r.Latency.P99Ms)
		}
	}
	// Idle ≈80% at 2k, ≈60% at 4k.
	if idle := f4["bully=standalone/qps=2000"].Breakdown.IdlePct; idle < 65 || idle > 90 {
		t.Errorf("idle@2k = %.1f%%, want ≈80%%", idle)
	}
	if idle := f4["bully=standalone/qps=4000"].Breakdown.IdlePct; idle < 45 || idle > 75 {
		t.Errorf("idle@4k = %.1f%%, want ≈60%%", idle)
	}
}

func TestFig4MidBullyBand(t *testing.T) {
	f4 := sweepCells(t, "fig4")
	// §6.1.2: the mid bully visibly degrades the tail at peak load but
	// stays far from the catastrophic high case and drops (almost)
	// nothing. At average load our scheduler model's exact wake
	// placement leaves the primary unharmed (24 bully threads still
	// leave free cores), so the visibility band is asserted at peak —
	// see EXPERIMENTS.md for the divergence note.
	base4k := f4["bully=standalone/qps=4000"]
	mid4k := f4["bully=mid/qps=4000"]
	d99 := mid4k.Latency.P99Ms - base4k.Latency.P99Ms
	if d99 < 1 {
		t.Errorf("mid bully degradation at peak = %.2f ms, want visible (>1 ms)", d99)
	}
	for _, qps := range []int{2000, 4000} {
		base := f4[fmt.Sprintf("bully=standalone/qps=%d", qps)]
		mid := f4[fmt.Sprintf("bully=mid/qps=%d", qps)]
		if mid.Latency.P99Ms > 10*base.Latency.P99Ms {
			t.Errorf("qps=%v: mid bully P99 %.1f ms is catastrophic; should be moderate", qps, mid.Latency.P99Ms)
		}
		if mid.DropRate > 0.02 {
			t.Errorf("qps=%v: mid bully drop rate %.3f; the paper's mid case prevents drops", qps, mid.DropRate)
		}
	}
	// Fig. 4b: the primary compensates — its CPU share rises under mid
	// interference at peak.
	if mid4k.Breakdown.PrimaryPct <= base4k.Breakdown.PrimaryPct {
		t.Errorf("primary CPU did not rise under mid bully: %.1f%% → %.1f%%",
			base4k.Breakdown.PrimaryPct, mid4k.Breakdown.PrimaryPct)
	}
}

func TestFig4HighBullyCatastrophe(t *testing.T) {
	f4 := sweepCells(t, "fig4")
	for _, qps := range []int{2000, 4000} {
		base := f4[fmt.Sprintf("bully=standalone/qps=%d", qps)]
		high := f4[fmt.Sprintf("bully=high/qps=%d", qps)]
		// §6.1.2: 29× degradation, P99 saturating near the deadline,
		// 11–32% of queries dropped.
		if high.Latency.P99Ms < 10*base.Latency.P99Ms {
			t.Errorf("qps=%v: high bully P99 %.1f ms vs base %.1f ms; want >= 10x",
				qps, high.Latency.P99Ms, base.Latency.P99Ms)
		}
		if high.DropRate < 0.03 {
			t.Errorf("qps=%v: high bully drop rate %.3f, want substantial (paper: 11-32%%)", qps, high.DropRate)
		}
	}
}

func TestFig5BlindIsolationBands(t *testing.T) {
	f5 := sweepCells(t, "fig5")
	for _, qps := range []int{2000, 4000} {
		base := f5[fmt.Sprintf("standalone/qps=%d", qps)]
		r8 := f5[fmt.Sprintf("blind=8/qps=%d", qps)]
		_, _, d99 := r8.DegradationMs(base)
		// §6.1.3: 8 buffer cores keep P99 within 1 ms of standalone.
		if d99 > 1.0 {
			t.Errorf("qps=%v: blind-8 P99 degradation = %.2f ms, want <= 1 ms", qps, d99)
		}
		if r8.DropRate > 0.005 {
			t.Errorf("qps=%v: blind-8 drop rate = %.4f, want ~0", qps, r8.DropRate)
		}
		// The bully must still get real work done.
		if r8.BullyProgress <= 0 {
			t.Errorf("qps=%v: blind-8 bully made no progress", qps)
		}
	}
	// 4 buffers is worse than 8 at peak (the paper shows visibly larger
	// degradation with 4).
	_, _, d99b4 := f5["blind=4/qps=4000"].DegradationMs(f5["standalone/qps=4000"])
	_, _, d99b8 := f5["blind=8/qps=4000"].DegradationMs(f5["standalone/qps=4000"])
	if d99b4 < d99b8-0.2 {
		t.Errorf("4 buffers (%.2f ms) materially better than 8 (%.2f ms); expected the opposite ordering", d99b4, d99b8)
	}
}

func TestFig8ComparisonShape(t *testing.T) {
	f8 := sweepCells(t, "fig8")
	base := f8["standalone"].Latency.P99Ms

	// 1) no isolation is catastrophic.
	if p99 := f8["no-isolation"].Latency.P99Ms; p99 < 10*base {
		t.Errorf("no-isolation P99 %.1f ms, want >= 10x standalone %.1f ms", p99, base)
	}
	// 2) blind isolation and static cores both protect the tail.
	if d := f8["blind"].Latency.P99Ms - base; d > 1.0 {
		t.Errorf("blind P99 degradation %.2f ms, want <= 1", d)
	}
	if d := f8["cores"].Latency.P99Ms - base; d > 5.0 {
		t.Errorf("static-cores P99 degradation %.2f ms, want modest (<= 5)", d)
	}
	// 3) cycle capping fails to protect the tail (paper Fig. 8a shows
	// ≈3x standalone for the 5% cap).
	if p99 := f8["cycles"].Latency.P99Ms; p99 < 2.5*base {
		t.Errorf("cycle-cap P99 %.1f ms, want clearly degraded (>= 2.5x standalone)", p99)
	}
	// 4) blind leaves less CPU idle than static cores (paper: −13%).
	if f8["blind"].Breakdown.IdlePct >= f8["cores"].Breakdown.IdlePct {
		t.Errorf("blind idle %.1f%% >= cores idle %.1f%%; blind should harvest more",
			f8["blind"].Breakdown.IdlePct, f8["cores"].Breakdown.IdlePct)
	}
	// 5) secondary progress ordering: blind > cores > cycles (§6.1.4:
	// 62% vs 45% vs 9%).
	noiso := f8["no-isolation"]
	blind := progressShare(f8["blind"], noiso)
	cores := progressShare(f8["cores"], noiso)
	cycles := progressShare(f8["cycles"], noiso)
	if !(blind > cores && cores > cycles) {
		t.Errorf("progress ordering blind=%.2f cores=%.2f cycles=%.2f, want blind > cores > cycles",
			blind, cores, cycles)
	}
	if cycles > 0.25 {
		t.Errorf("cycle-cap progress share %.2f, want small (paper: 9%%)", cycles)
	}
}

func TestHeadlineUtilization(t *testing.T) {
	h := sweepCells(t, "headline")
	alone, colo := h["standalone"].Breakdown, h["colocated"].Breakdown
	// §1: 21% → 66% average CPU utilization at off-peak load. Bands
	// allow simulator offsets while preserving the story.
	if used := alone.UsedPct(); used < 10 || used > 35 {
		t.Errorf("standalone used = %.1f%%, want ≈21%%", used)
	}
	if used := colo.UsedPct(); used < 55 || used > 90 {
		t.Errorf("colocated used = %.1f%%, want ≈66%%", used)
	}
	if colo.SecondaryPct < 30 {
		t.Errorf("secondary share = %.1f%%, want the batch job doing the harvesting (paper: up to 47%%)", colo.SecondaryPct)
	}
}

func TestFig6StaticCoresShape(t *testing.T) {
	f6 := sweepCells(t, "fig6")
	base := f6["standalone/qps=4000"]
	// Fig. 6a: 8 secondary cores protect the tail at peak; 24 do not
	// (the primary needs more than the remaining 24).
	_, _, d8 := f6["cores=8/qps=4000"].DegradationMs(base)
	_, _, d24 := f6["cores=24/qps=4000"].DegradationMs(base)
	if d8 > 4 {
		t.Errorf("cores=8 P99 degradation at peak = %.2f ms, want small", d8)
	}
	if d24 <= d8 {
		t.Errorf("cores=24 (%.2f ms) not worse than cores=8 (%.2f ms) at peak", d24, d8)
	}
}

func TestFig7CycleCapShape(t *testing.T) {
	f7 := sweepCells(t, "fig7")
	base := f7["standalone/qps=2000"]
	r5, r45 := f7["cycles=5%/qps=2000"], f7["cycles=45%/qps=2000"]
	// Fig. 7a: even a 5% cap produces clear degradation, and a larger
	// cap is *worse* — the counterintuitive result the paper highlights
	// (a bigger budget saturates the machine for longer each window).
	_, _, d5 := r5.DegradationMs(base)
	if d5 < 1 {
		t.Errorf("cycles=5%% degradation = %.2f ms, want visible", d5)
	}
	if r45.Latency.P99Ms < r5.Latency.P99Ms {
		t.Errorf("cycles=45%% P99 (%.1f) better than 5%% (%.1f); want monotone worse",
			r45.Latency.P99Ms, r5.Latency.P99Ms)
	}
	if r45.Latency.P99Ms < 10*base.Latency.P99Ms {
		t.Errorf("cycles=45%% P99 %.1f ms, want catastrophic (paper: hundreds of ms)", r45.Latency.P99Ms)
	}
}

func TestTablesRender(t *testing.T) {
	for _, e := range sweepResults(t).Experiments {
		s := e.Report.Table
		if e.Name != "headline" && !strings.Contains(s, "p99ms") {
			t.Errorf("%s table missing header: %q", e.Name, s[:60])
		}
		if strings.Contains(s, "NaN") {
			t.Errorf("%s table contains NaN", e.Name)
		}
	}
}

// TestSweepsMatchCommittedReport pins the sweep declarations to the
// committed RESULTS.md: each sweep's table block and its
// Paper-vs-reproduced or Extensions row must come out byte for byte.
func TestSweepsMatchCommittedReport(t *testing.T) {
	res := sweepResults(t)
	committed, err := os.ReadFile("../../RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got := RenderMarkdown(res)
	for _, sw := range allSweeps() {
		block := "\n### " + sw.name + " — "
		if g, w := mdBlock(got, block, "\n```\n"), mdBlock(string(committed), block, "\n```\n"); g == "" || g != w {
			t.Errorf("%s: table block differs from RESULTS.md\ngot:\n%s\nwant:\n%s", sw.name, g, w)
		}
		line := "\n| " + sw.comparison(res.Value(sw.name).(SweepResult)).Figure + " |"
		if g, w := mdBlock(got, line, "\n"), mdBlock(string(committed), line, "\n"); g == "" || g != w {
			t.Errorf("%s: report row differs from RESULTS.md\ngot:  %s\nwant: %s", sw.name, g, w)
		}
	}
}

// mdBlock returns md from the first occurrence of start through the
// first end after it, or "" when start is absent.
func mdBlock(md, start, end string) string {
	i := strings.Index(md, start)
	if i < 0 {
		return ""
	}
	j := strings.Index(md[i+len(start):], end)
	if j < 0 {
		return md[i:]
	}
	return md[i : i+len(start)+j+len(end)]
}

// TestMissingProbedCellRendersMissingRow builds a run by hand, with no
// simulation: a paper row and an ablation row whose sweeps lost one
// probed cell must both render as the ✗ missing-cell row rather than
// comparing zero values.
func TestMissingProbedCellRendersMissingRow(t *testing.T) {
	for _, tc := range []struct{ sweep, drop, tail string }{
		{"fig5", "blind=8/qps=4000", " — | ✗ |"}, // Paper vs reproduced: no rel. err, Match ✗
		{"ablation-buffer", "buffer=16/qps=4000", ""},
	} {
		var sw sweep
		for _, s := range allSweeps() {
			if s.name == tc.sweep {
				sw = s
			}
		}
		full := SweepResult{}
		for _, p := range sw.points(TestSpec()) {
			full[p.cell] = SingleResult{Latency: stats.LatencySummary{Count: 1}}
		}
		want := sw.comparison(full)
		if strings.Contains(want.Reproduced, "probed cell missing") {
			t.Fatalf("%s: complete sweep renders the missing row: %+v", tc.sweep, want)
		}
		delete(full, tc.drop)
		miss := missing(want.Figure, want.Paper)
		if got := sw.comparison(full); got != miss {
			t.Errorf("%s without %s: comparison = %+v, want the missing row", tc.sweep, tc.drop, got)
		}
		res := RunResult{Spec: TestSpec(), Experiments: []ExperimentResult{{Name: tc.sweep, Value: full}}}
		row := fmt.Sprintf("| %s | %s | %s |%s", miss.Figure, miss.Paper, miss.Reproduced, tc.tail)
		if md := RenderMarkdown(res); !strings.Contains(md, "\n"+row+"\n") {
			t.Errorf("%s without %s: report lacks the missing-cell row %q\n%s", tc.sweep, tc.drop, row, md)
		}
	}
}
