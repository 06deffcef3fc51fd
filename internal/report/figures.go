package report

import (
	"sort"
	"strconv"
	"strings"

	"perfiso/internal/simtrace"
)

// Figure is one rendered chart: Name is the artifact file stem
// (figures/<Name>.svg), Title the human caption.
type Figure struct {
	Name  string
	Title string
	SVG   []byte
}

// figureSpec maps one registered experiment's data onto a chart. The
// builder returns false when the dataset lacks the experiment (e.g. a
// filtered run), which simply drops the figure.
type figureSpec struct {
	name  string
	title string
	build func(ds *Dataset) (Chart, bool)
}

// specs is the fixed figure list — the paper's Figs. 4–10 plus the
// repo's extensions, in a stable order that never depends on the
// dataset.
func specs() []figureSpec {
	return []figureSpec{
		{"fig4-p99-series", "Fig. 4 — windowed P99 under unrestricted secondaries", cellTracks("fig4", "p99_ms", MarkLine, "windowed P99 (ms)")},
		{"fig4-cdf", "Fig. 4 — latency distribution, standalone vs bullies", fig4CDF},
		{"forensics-decomposition", "Tail forensics — latency decomposition across percentiles (high bully, 2,000 QPS)", forensicsDecomposition},
		{"forensics-blame", "Tail forensics — P99 blame by cause, standalone vs high bully", forensicsBlame},
		{"fig5-latency", "Fig. 5 — P99 vs load under blind isolation", latencyVsQPS("fig5")},
		{"fig5-alloc", "Fig. 5 — blind governor core allocation over time", cellTracks("fig5", "alloc_cores", MarkStep, "cores granted to secondary")},
		{"fig6-latency", "Fig. 6 — P99 vs load under static core restriction", latencyVsQPS("fig6")},
		{"fig7-latency", "Fig. 7 — P99 vs load under cycle caps", latencyVsQPS("fig7")},
		{"fig8-p99", "Fig. 8 — P99 latency by isolation technique", fig8Bar("p99ms", "P99 (ms)")},
		{"fig8-progress", "Fig. 8 — secondary progress by isolation technique", fig8Bar("bully_progress", "secondary progress (work units)")},
		{"fig9-tails", "Fig. 9 — per-layer cluster P99 by scenario", fig9Tails},
		{"fig10-utilization", "Fig. 10 — production-hour CPU utilization (fluid model)", utilization("fig10", "production-hour")},
		{"fig10-p99", "Fig. 10 — production-hour P99 (fluid model)", seriesLine("fig10", "production-hour", "p99_ms", "P99 (ms)")},
		{"timeline-utilization", "Timeline — DES cross-check CPU utilization", utilization("timeline", "diurnal")},
		{"timeline-p99", "Timeline — DES cross-check P99", seriesLine("timeline", "diurnal", "p99_ms", "P99 (ms)")},
		{"harvest-frontier", "Harvest frontier — batch throughput vs primary P99", frontier("harvest-frontier")},
		{"harvest-progress", "Harvest frontier — batch completions over time", cellTracks("harvest-frontier", "tasks_completed", MarkStep, "batch tasks completed")},
		{"harvest-trace-frontier", "Trace-replay frontier — synthetic vs replayed backlog", frontier("harvest-trace-frontier")},
		{"ablation-buffer", "Ablation — buffer cores vs tail and harvest", ablation("ablation-buffer", "buffer")},
		{"ablation-poll", "Ablation — governor poll cadence vs tail and harvest", ablation("ablation-poll", "poll")},
		{"ablation-holdoff", "Ablation — grow holdoff vs tail and harvest", ablation("ablation-holdoff", "holdoff")},
	}
}

// Figures renders every spec the dataset can feed, in spec order.
func Figures(ds *Dataset) []Figure {
	var out []Figure
	for _, sp := range specs() {
		c, ok := sp.build(ds)
		if !ok {
			continue
		}
		c.Title = sp.title
		out = append(out, Figure{Name: sp.name, Title: sp.title, SVG: c.Render()})
	}
	return out
}

// splitQPS parses the repo's sweep cell convention
// "<policy>/qps=<load>" ("blind=8/qps=4000").
func splitQPS(cell string) (policy string, qps float64, ok bool) {
	i := strings.LastIndex(cell, "/qps=")
	if i < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(cell[i+len("/qps="):], 64)
	if err != nil {
		return "", 0, false
	}
	return cell[:i], v, true
}

// paramValue parses "<param>=<number>[ms][/...]" cell names for
// numeric ordering of ablation sweeps.
func paramValue(cell, param string) (float64, bool) {
	rest, found := strings.CutPrefix(cell, param+"=")
	if !found {
		return 0, false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	rest = strings.TrimSuffix(rest, "ms")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// cellTracks plots one time-series track of every cell of exp that
// sampled it, one series per cell.
func cellTracks(exp, track string, mark Mark, ylabel string) func(*Dataset) (Chart, bool) {
	return func(ds *Dataset) (Chart, bool) {
		var series []Series
		for _, cell := range ds.SeriesCells(exp) {
			tr, ok := ds.Track(exp, cell, track)
			if !ok || len(tr.Points) == 0 {
				continue
			}
			series = append(series, Series{Name: cell, Mark: mark, Points: trackXY(tr)})
		}
		return Chart{XLabel: "simulated time (s)", YLabel: ylabel, Series: series}, len(series) > 0
	}
}

// trackXY converts a track's samples into chart points.
func trackXY(tr Track) []XY {
	pts := make([]XY, len(tr.Points))
	for i, p := range tr.Points {
		pts[i] = XY{p.T, p.V}
	}
	return pts
}

// fig4CDF approximates each cell's latency distribution from its
// committed percentile metrics.
func fig4CDF(ds *Dataset) (Chart, bool) {
	quantiles := []struct {
		metric string
		frac   float64
	}{{"p50ms", 0.50}, {"p95ms", 0.95}, {"p99ms", 0.99}}
	var series []Series
	for _, cell := range ds.Cells("fig4") {
		var pts []XY
		for _, q := range quantiles {
			if v, ok := ds.Metric("fig4", cell, q.metric); ok {
				pts = append(pts, XY{v, q.frac})
			}
		}
		if len(pts) == len(quantiles) {
			series = append(series, Series{Name: cell, Mark: MarkCDF, Points: pts})
		}
	}
	return Chart{XLabel: "latency (ms)", YLabel: "fraction of queries",
		FixedY: true, YMin: 0, YMax: 1, Series: series}, len(series) > 0
}

// The forensics figures anchor on the Fig. 4 headline cells at the
// paper's average load: the unrestricted high bully (the worst tail)
// against the standalone baseline.
const (
	forensicsExp      = "fig4"
	forensicsCellHigh = "bully=high/qps=2000"
	forensicsCellBase = "bully=standalone/qps=2000"
)

// forensicsDecomposition stacks the attributed-latency causes of the
// high-bully cell's P50–P99.9 queries: each band is one cause's share
// of that quantile query's critical path. Series hold cumulative sums
// drawn largest first, so the fills layer into a stacked area.
func forensicsDecomposition(ds *Dataset) (Chart, bool) {
	quantiles := simtrace.Quantiles
	var series []Series
	for ci := len(simtrace.Causes) - 1; ci >= 0; ci-- {
		var pts []XY
		for qi, q := range quantiles {
			sum := 0.0
			for _, cause := range simtrace.Causes[:ci+1] {
				v, ok := ds.Forensic(forensicsExp, forensicsCellHigh, q, cause+"_ms")
				if !ok {
					return Chart{}, false
				}
				sum += v
			}
			pts = append(pts, XY{float64(qi), sum})
		}
		series = append(series, Series{Name: simtrace.Causes[ci], Mark: MarkArea, Points: pts})
	}
	return Chart{XLabel: "latency percentile", YLabel: "attributed latency (ms)",
		XCats: append([]string(nil), quantiles...), Series: series}, true
}

// forensicsBlame compares where the P99 query's time goes with and
// without the high bully — one line per cell across the fixed cause
// order.
func forensicsBlame(ds *Dataset) (Chart, bool) {
	cells := []struct{ cell, label string }{
		{forensicsCellBase, "standalone"},
		{forensicsCellHigh, "high bully"},
	}
	var series []Series
	for _, c := range cells {
		var pts []XY
		for i, cause := range simtrace.Causes {
			v, ok := ds.Forensic(forensicsExp, c.cell, "p99", cause+"_ms")
			if !ok {
				return Chart{}, false
			}
			pts = append(pts, XY{float64(i), v})
		}
		series = append(series, Series{Name: c.label, Mark: MarkLine, Points: pts})
	}
	return Chart{XLabel: "attributed cause", YLabel: "P99 query latency (ms)",
		XCats: append([]string(nil), simtrace.Causes...), Series: series}, true
}

// latencyVsQPS plots P99 against load, one line per policy prefix —
// the shape of the paper's Figs. 5–7 panels.
func latencyVsQPS(exp string) func(*Dataset) (Chart, bool) {
	return func(ds *Dataset) (Chart, bool) {
		byPolicy := map[string][]XY{}
		var policies []string
		for _, cell := range ds.Cells(exp) {
			policy, qps, ok := splitQPS(cell)
			if !ok {
				continue
			}
			p99, ok := ds.Metric(exp, cell, "p99ms")
			if !ok {
				continue
			}
			if _, seen := byPolicy[policy]; !seen {
				policies = append(policies, policy)
			}
			byPolicy[policy] = append(byPolicy[policy], XY{qps, p99})
		}
		// policies inherits Cells' sorted order; points within a policy
		// inherit the cell sort, which orders qps lexically — re-sort
		// numerically.
		var series []Series
		for _, policy := range policies {
			pts := byPolicy[policy]
			sort.SliceStable(pts, func(a, b int) bool { return pts[a].X < pts[b].X })
			series = append(series, Series{Name: policy, Mark: MarkLine, Points: pts})
		}
		return Chart{XLabel: "load (QPS)", YLabel: "P99 (ms)", Series: series}, len(series) > 0
	}
}

// fig8Cats is the paper's fixed bar order.
var fig8Cats = []string{"standalone", "no-isolation", "blind", "cores", "cycles"}

// fig8Bar plots one metric across the five isolation techniques.
func fig8Bar(metric, ylabel string) func(*Dataset) (Chart, bool) {
	return func(ds *Dataset) (Chart, bool) {
		var pts []XY
		for i, cell := range fig8Cats {
			v, ok := ds.Metric("fig8", cell, metric)
			if !ok {
				return Chart{}, false
			}
			pts = append(pts, XY{float64(i), v})
		}
		return Chart{XLabel: "isolation technique", YLabel: ylabel, XCats: fig8Cats,
			Series: []Series{{Mark: MarkLine, Points: pts}}}, true
	}
}

// fig9Tails plots each latency layer's P99 across the three cluster
// scenarios.
func fig9Tails(ds *Dataset) (Chart, bool) {
	cats := []string{"standalone", "cpu-bound", "disk-bound"}
	layers := []string{"server", "mla", "tla"}
	var series []Series
	for _, layer := range layers {
		var pts []XY
		for i, cell := range cats {
			v, ok := ds.Metric("fig9", cell, layer+"_p99ms")
			if !ok {
				return Chart{}, false
			}
			pts = append(pts, XY{float64(i), v})
		}
		series = append(series, Series{Name: layer, Mark: MarkLine, Points: pts})
	}
	return Chart{XLabel: "scenario", YLabel: "P99 (ms)", XCats: cats, Series: series}, true
}

// utilization plots a timeline cell's CPU-used and secondary-share
// tracks on one percent axis.
func utilization(exp, cell string) func(*Dataset) (Chart, bool) {
	return func(ds *Dataset) (Chart, bool) {
		var series []Series
		for _, spec := range []struct{ track, label string }{
			{"cpu_used_pct", "CPU used"}, {"sec_pct", "secondary share"},
		} {
			tr, ok := ds.Track(exp, cell, spec.track)
			if !ok || len(tr.Points) == 0 {
				continue
			}
			series = append(series, Series{Name: spec.label, Mark: MarkLine, Points: trackXY(tr)})
		}
		return Chart{XLabel: "simulated time (s)", YLabel: "CPU (%)",
			FixedY: true, YMin: 0, YMax: 100, Series: series}, len(series) > 0
	}
}

// seriesLine plots one track of one cell.
func seriesLine(exp, cell, track, ylabel string) func(*Dataset) (Chart, bool) {
	return func(ds *Dataset) (Chart, bool) {
		tr, ok := ds.Track(exp, cell, track)
		if !ok || len(tr.Points) == 0 {
			return Chart{}, false
		}
		return Chart{XLabel: "simulated time (s)", YLabel: ylabel,
			Series: []Series{{Mark: MarkLine, Points: trackXY(tr)}}}, true
	}
}

// frontier scatters each policy cell's batch throughput against its
// primary P99 — up and to the left wins.
func frontier(exp string) func(*Dataset) (Chart, bool) {
	return func(ds *Dataset) (Chart, bool) {
		var series []Series
		for _, cell := range ds.Cells(exp) {
			x, okx := ds.Metric(exp, cell, "tasks_per_sec")
			y, oky := ds.Metric(exp, cell, "server_p99ms")
			if !okx || !oky {
				continue
			}
			series = append(series, Series{Name: cell, Mark: MarkScatter, Points: []XY{{x, y}}})
		}
		return Chart{XLabel: "batch tasks per second", YLabel: "server P99 (ms)", Series: series},
			len(series) > 0
	}
}

// ablation plots P99 and harvested secondary share across one
// parameter sweep, standalone baseline first then numeric order.
func ablation(exp, param string) func(*Dataset) (Chart, bool) {
	return func(ds *Dataset) (Chart, bool) {
		type cat struct {
			cell  string
			label string
			v     float64
		}
		var cats []cat
		for _, cell := range ds.Cells(exp) {
			label := cell
			if i := strings.IndexByte(cell, '/'); i >= 0 {
				label = cell[:i]
			}
			if strings.HasPrefix(cell, "standalone") {
				cats = append(cats, cat{cell, "alone", -1})
				continue
			}
			if v, ok := paramValue(cell, param); ok {
				cats = append(cats, cat{cell, label, v})
			}
		}
		if len(cats) == 0 {
			return Chart{}, false
		}
		sort.SliceStable(cats, func(a, b int) bool {
			if cats[a].v != cats[b].v {
				return cats[a].v < cats[b].v
			}
			return cats[a].label < cats[b].label
		})
		var labels []string
		p99 := Series{Name: "P99 (ms)", Mark: MarkLine}
		sec := Series{Name: "secondary CPU (%)", Mark: MarkLine}
		for i, c := range cats {
			labels = append(labels, c.label)
			if v, ok := ds.Metric(exp, c.cell, "p99ms"); ok {
				p99.Points = append(p99.Points, XY{float64(i), v})
			}
			if v, ok := ds.Metric(exp, c.cell, "secondary_pct"); ok {
				sec.Points = append(sec.Points, XY{float64(i), v})
			}
		}
		return Chart{XLabel: param, YLabel: "P99 (ms) / secondary CPU (%)", XCats: labels,
			Series: []Series{p99, sec}}, len(p99.Points) > 0
	}
}
