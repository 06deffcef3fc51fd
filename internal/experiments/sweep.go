package experiments

import (
	"fmt"
	"strings"

	"perfiso/internal/isolation"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
)

// The single-machine evaluation — §6.1's Figs. 4–8, the §1 headline and
// the controller ablations — is one family of runs: IndexServe at some
// load next to a CPU bully under some isolation policy. Each experiment
// of the family is declared below as a sweep, a list of points, and one
// generic path builds its cells, assembles its rows, series and
// forensics, renders its table and answers its report row.

// fig8QPS is the load of the Fig. 8 comparison at every scale: the
// paper's 2,000 QPS (§6.1.4).
const fig8QPS float64 = 2000

// SweepResult is a sweep's assembled value: every point's result keyed
// by cell name.
type SweepResult map[string]SingleResult

// point is one cell of a sweep.
type point struct {
	// cell names the cell within its experiment.
	cell string
	// label heads the point's table row. An unlabelled point is run and
	// lands in the artifacts but not in the table (the standalone
	// baselines of Figs. 5–7).
	label  string
	qps    float64
	bully  BullyMode
	policy isolation.Policy // nil means no isolation
	// baseline names the cell this point is compared against: latency
	// degradation in ∆ lines and the ablation d99 column, secondary
	// progress in Fig. 8, CPU utilization in the headline.
	baseline string
}

// layout selects how a sweep renders its table and artifact rows.
type layout int

const (
	// deltaTable (Figs. 4–7) prints a row per labelled point and a
	// latency ∆ line under each point with a baseline.
	deltaTable layout = iota
	// progressTable (Fig. 8) prints a row per labelled point and ends
	// with each baselined point's secondary progress as a share of its
	// baseline's.
	progressTable
	// summaryTable (the headline) compares the last point's CPU
	// utilization with its baseline's in one line and one row named
	// after the experiment.
	summaryTable
	// ablationTable prints a narrow row per point with its P99
	// degradation against its baseline, which the artifact rows carry
	// as d99ms.
	ablationTable
)

// sweep declares one single-machine experiment.
type sweep struct {
	name, describe string
	// title heads the table.
	title  string
	layout layout
	// axis and width head and size an ablation table's label column.
	axis  string
	width int
	// series emits the cells' time series into series.csv.
	series bool
	// points lists the cells in table order. It is a func because it
	// builds fresh policies on every call: an installed
	// blind-isolation policy holds its governor.
	points func() []point
	// compare answers the sweep's report row, reading cells by name
	// through get; see sweep.comparison for the missing-cell guard.
	compare func(get func(cell string) SingleResult) comparison
}

// paperSweeps are the paper's single-machine figures, answering rows of
// the report's Paper-vs-reproduced table.
var paperSweeps = []sweep{
	{
		name:     "fig4",
		describe: "Figs. 4a/4b — standalone vs unrestricted mid/high secondary at both loads",
		title:    "Fig. 4 — IndexServe standalone vs unrestricted secondary (no isolation)",
		series:   true,
		points: func() []point {
			return []point{
				{cell: "bully=standalone/qps=2000", label: "standalone", qps: 2000},
				{cell: "bully=standalone/qps=4000", label: "standalone", qps: 4000},
				{cell: "bully=mid/qps=2000", label: "mid", qps: 2000, bully: BullyMid},
				{cell: "bully=mid/qps=4000", label: "mid", qps: 4000, bully: BullyMid},
				{cell: "bully=high/qps=2000", label: "high", qps: 2000, bully: BullyHigh},
				{cell: "bully=high/qps=4000", label: "high", qps: 4000, bully: BullyHigh},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			base, high2k, high4k := get("bully=standalone/qps=2000"), get("bully=high/qps=2000"), get("bully=high/qps=4000")
			ratio := 0.0
			if base.Latency.P99Ms > 0 {
				ratio = high2k.Latency.P99Ms / base.Latency.P99Ms
			}
			minDrop, maxDrop := min(high2k.DropRate, high4k.DropRate), max(high2k.DropRate, high4k.DropRate)
			return comparison{
				Figure:     "Fig. 4",
				Paper:      "unrestricted high secondary: ≈29× P99 degradation, 11–32% of queries dropped (§6.1.2)",
				Reproduced: fmt.Sprintf("P99 %.0f× standalone at 2,000 QPS; drops %.0f–%.0f%%", ratio, 100*minDrop, 100*maxDrop),
				Match:      ratio >= 10 && maxDrop >= 0.03,
				HasRel:     true, PaperVal: 29, GotVal: ratio,
			}
		},
	},
	{
		name:     "fig5",
		describe: "Figs. 5a/5b — blind isolation with 4 and 8 buffer cores under the high secondary",
		title:    "Fig. 5 — blind isolation, high secondary (degradation vs standalone)",
		series:   true,
		points: func() []point {
			return []point{
				{cell: "standalone/qps=2000", qps: 2000},
				{cell: "standalone/qps=4000", qps: 4000},
				{cell: "blind=4/qps=2000", label: "blind B=4", qps: 2000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 4}, baseline: "standalone/qps=2000"},
				{cell: "blind=4/qps=4000", label: "blind B=4", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 4}, baseline: "standalone/qps=4000"},
				{cell: "blind=8/qps=2000", label: "blind B=8", qps: 2000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8}, baseline: "standalone/qps=2000"},
				{cell: "blind=8/qps=4000", label: "blind B=8", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8}, baseline: "standalone/qps=4000"},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			_, _, d2k := get("blind=8/qps=2000").DegradationMs(get("standalone/qps=2000"))
			_, _, d4k := get("blind=8/qps=4000").DegradationMs(get("standalone/qps=4000"))
			return comparison{
				Figure:     "Fig. 5",
				Paper:      "blind isolation with 8 buffer cores keeps P99 within ~1 ms of standalone (§6.1.3)",
				Reproduced: fmt.Sprintf("∆P99 %+.2f ms at 2,000 QPS, %+.2f ms at 4,000 QPS", d2k, d4k),
				Match:      d2k <= 1.0 && d4k <= 1.0,
			}
		},
	},
	{
		name:     "fig6",
		describe: "Figs. 6a/6b — secondary statically restricted to 24/16/8 cores",
		title:    "Fig. 6 — static CPU cores, high secondary",
		points: func() []point {
			return []point{
				{cell: "standalone/qps=2000", qps: 2000},
				{cell: "standalone/qps=4000", qps: 4000},
				{cell: "cores=24/qps=2000", label: "cores=24", qps: 2000, bully: BullyHigh, policy: isolation.StaticCores{Cores: 24}, baseline: "standalone/qps=2000"},
				{cell: "cores=24/qps=4000", label: "cores=24", qps: 4000, bully: BullyHigh, policy: isolation.StaticCores{Cores: 24}, baseline: "standalone/qps=4000"},
				{cell: "cores=16/qps=2000", label: "cores=16", qps: 2000, bully: BullyHigh, policy: isolation.StaticCores{Cores: 16}, baseline: "standalone/qps=2000"},
				{cell: "cores=16/qps=4000", label: "cores=16", qps: 4000, bully: BullyHigh, policy: isolation.StaticCores{Cores: 16}, baseline: "standalone/qps=4000"},
				{cell: "cores=8/qps=2000", label: "cores=8", qps: 2000, bully: BullyHigh, policy: isolation.StaticCores{Cores: 8}, baseline: "standalone/qps=2000"},
				{cell: "cores=8/qps=4000", label: "cores=8", qps: 4000, bully: BullyHigh, policy: isolation.StaticCores{Cores: 8}, baseline: "standalone/qps=4000"},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			base := get("standalone/qps=4000")
			_, _, d8 := get("cores=8/qps=4000").DegradationMs(base)
			_, _, d24 := get("cores=24/qps=4000").DegradationMs(base)
			return comparison{
				Figure:     "Fig. 6",
				Paper:      "8 static secondary cores protect the tail at peak; 24 do not (§6.1.3, Fig. 6a)",
				Reproduced: fmt.Sprintf("∆P99 at 4,000 QPS: cores=8 %+.2f ms, cores=24 %+.2f ms", d8, d24),
				Match:      d8 < d24 && d8 <= 4,
			}
		},
	},
	{
		name:     "fig7",
		describe: "Figs. 7a–7c — secondary capped at 45%/25%/5% of CPU cycles",
		title:    "Fig. 7 — static CPU cycles, high secondary",
		points: func() []point {
			return []point{
				{cell: "standalone/qps=2000", qps: 2000},
				{cell: "standalone/qps=4000", qps: 4000},
				{cell: "cycles=45%/qps=2000", label: "cycles=45%", qps: 2000, bully: BullyHigh, policy: isolation.CycleCap{Fraction: 0.45}, baseline: "standalone/qps=2000"},
				{cell: "cycles=45%/qps=4000", label: "cycles=45%", qps: 4000, bully: BullyHigh, policy: isolation.CycleCap{Fraction: 0.45}, baseline: "standalone/qps=4000"},
				{cell: "cycles=25%/qps=2000", label: "cycles=25%", qps: 2000, bully: BullyHigh, policy: isolation.CycleCap{Fraction: 0.25}, baseline: "standalone/qps=2000"},
				{cell: "cycles=25%/qps=4000", label: "cycles=25%", qps: 4000, bully: BullyHigh, policy: isolation.CycleCap{Fraction: 0.25}, baseline: "standalone/qps=4000"},
				{cell: "cycles=5%/qps=2000", label: "cycles=5%", qps: 2000, bully: BullyHigh, policy: isolation.CycleCap{Fraction: 0.05}, baseline: "standalone/qps=2000"},
				{cell: "cycles=5%/qps=4000", label: "cycles=5%", qps: 4000, bully: BullyHigh, policy: isolation.CycleCap{Fraction: 0.05}, baseline: "standalone/qps=4000"},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			r5, r45 := get("cycles=5%/qps=2000"), get("cycles=45%/qps=2000")
			_, _, d5 := r5.DegradationMs(get("standalone/qps=2000"))
			return comparison{
				Figure:     "Fig. 7",
				Paper:      "even a 5% cycle cap visibly degrades the tail, and larger caps are worse (§6.1.3)",
				Reproduced: fmt.Sprintf("∆P99 at 2,000 QPS: cap=5%% %+.2f ms; cap=45%% P99 %.1f ms vs cap=5%% %.1f ms", d5, r45.Latency.P99Ms, r5.Latency.P99Ms),
				Match:      d5 >= 1 && r45.Latency.P99Ms >= r5.Latency.P99Ms,
			}
		},
	},
	{
		name:     "fig8",
		describe: "Figs. 8a–8c — five-way isolation comparison at the paper's 2,000 QPS",
		title:    "Fig. 8 — isolation comparison (high secondary)",
		layout:   progressTable,
		points: func() []point {
			// The no-isolation run doubles as the baseline the paper
			// normalizes "progress under isolation" against (§6.1.4).
			return []point{
				{cell: "standalone", label: "standalone", qps: fig8QPS},
				{cell: "no-isolation", label: "no isolation", qps: fig8QPS, bully: BullyHigh},
				{cell: "blind", label: "blind isolation", qps: fig8QPS, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8}, baseline: "no-isolation"},
				{cell: "cores", label: "cpu cores", qps: fig8QPS, bully: BullyHigh, policy: isolation.StaticCores{Cores: 8}, baseline: "no-isolation"},
				{cell: "cycles", label: "cpu cycles", qps: fig8QPS, bully: BullyHigh, policy: isolation.CycleCap{Fraction: 0.05}, baseline: "no-isolation"},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			noiso := get("no-isolation")
			blind := progressShare(get("blind"), noiso)
			cores := progressShare(get("cores"), noiso)
			cycles := progressShare(get("cycles"), noiso)
			return comparison{
				Figure:     "Fig. 8",
				Paper:      "secondary progress vs unrestricted: blind 62%, cores 45%, cycles 9% (§6.1.4)",
				Reproduced: fmt.Sprintf("blind %.0f%%, cores %.0f%%, cycles %.0f%%", 100*blind, 100*cores, 100*cycles),
				Match:      blind > cores && cores > cycles && cycles <= 0.25,
				HasRel:     true, PaperVal: 0.62, GotVal: blind,
			}
		},
	},
	{
		name:     "headline",
		describe: "§1 headline — average CPU utilization standalone vs colocated (21% → 66%)",
		title:    "headline — avg CPU used",
		layout:   summaryTable,
		points: func() []point {
			return []point{
				{cell: "standalone", qps: 2000},
				{cell: "colocated", qps: 2000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8}, baseline: "standalone"},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			alone, colo := get("standalone").Breakdown, get("colocated").Breakdown
			return comparison{
				Figure:     "Headline",
				Paper:      "average CPU utilization rises from 21% to 66% for co-located servers (§1)",
				Reproduced: fmt.Sprintf("%.0f%% → %.0f%% (secondary %.0f%%)", alone.UsedPct(), colo.UsedPct(), colo.SecondaryPct),
				Match: alone.UsedPct() >= 10 && alone.UsedPct() <= 35 &&
					colo.UsedPct() >= 55 && colo.UsedPct() <= 90,
				HasRel: true, PaperVal: 66, GotVal: colo.UsedPct(),
			}
		},
	},
}

// ablationSweeps sweep the controller's knobs beyond the paper and
// answer rows of the report's Extensions table. Every cell is keyed,
// so the standalone baselines and the paper's {4, 8} buffers are shared
// with Figs. 4–8 instead of re-simulated. buffer=0 is the no-isolation
// limit: an absent controller, not a zero-buffer one. The scheduler
// quantum and eviction-latency sweeps remain benchmark-only.
var ablationSweeps = []sweep{
	{
		name:     "ablation-buffer",
		describe: "ablation — blind-isolation buffer size swept beyond the paper's {4,8} at peak load",
		title:    "Blind-isolation buffer ablation — high bully at 4000 QPS (buffer=0 is no isolation)",
		layout:   ablationTable, axis: "buffer", width: 8,
		points: func() []point {
			const base = "standalone/qps=4000"
			return []point{
				{cell: base, label: "alone", qps: 4000},
				{cell: "buffer=0/qps=4000", label: "0", qps: 4000, bully: BullyHigh, baseline: base},
				{cell: "buffer=2/qps=4000", label: "2", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 2}, baseline: base},
				{cell: "buffer=4/qps=4000", label: "4", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 4}, baseline: base},
				{cell: "buffer=8/qps=4000", label: "8", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8}, baseline: base},
				{cell: "buffer=12/qps=4000", label: "12", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 12}, baseline: base},
				{cell: "buffer=16/qps=4000", label: "16", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 16}, baseline: base},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			base := get("standalone/qps=4000")
			r4, r8, r16 := get("buffer=4/qps=4000"), get("buffer=8/qps=4000"), get("buffer=16/qps=4000")
			_, _, d4 := r4.DegradationMs(base)
			_, _, d8 := r8.DegradationMs(base)
			_, _, d16 := r16.DegradationMs(base)
			return comparison{
				Figure:     "ablation-buffer",
				Paper:      "buffer sweep beyond the paper's {4,8}: how much buffer the tail needs vs harvest it costs",
				Reproduced: fmt.Sprintf("∆P99 at 4000 QPS: B=4 %+.2f ms, B=8 %+.2f ms, B=16 %+.2f ms (sec%% %.1f/%.1f/%.1f)", d4, d8, d16, r4.Breakdown.SecondaryPct, r8.Breakdown.SecondaryPct, r16.Breakdown.SecondaryPct),
				Match:      true,
			}
		},
	},
	{
		// Rescue latency is bounded by the poll cadence, so the tail
		// should degrade as polling slows from §4.1's tight 100 µs loop.
		name:     "ablation-poll",
		describe: "ablation — governor poll cadence swept around the §4.1 100 µs loop at peak load",
		title:    "Governor poll-interval ablation — B=8 blind isolation, high bully at 4000 QPS",
		layout:   ablationTable, axis: "poll", width: 10,
		points: func() []point {
			const base = "standalone/qps=4000"
			return []point{
				{cell: base, label: "alone", qps: 4000},
				{cell: "poll=0.05ms/qps=4000", label: "0.05ms", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8, PollInterval: 50 * sim.Microsecond}, baseline: base},
				{cell: "poll=0.1ms/qps=4000", label: "0.1ms", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8, PollInterval: 100 * sim.Microsecond}, baseline: base},
				{cell: "poll=1ms/qps=4000", label: "1ms", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8, PollInterval: 1 * sim.Millisecond}, baseline: base},
				{cell: "poll=10ms/qps=4000", label: "10ms", qps: 4000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8, PollInterval: 10 * sim.Millisecond}, baseline: base},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			base, fast, slow := get("standalone/qps=4000"), get("poll=0.05ms/qps=4000"), get("poll=10ms/qps=4000")
			_, _, dFast := fast.DegradationMs(base)
			_, _, dSlow := slow.DegradationMs(base)
			return comparison{
				Figure:     "ablation-poll",
				Paper:      "poll cadence sweep around §4.1's 100 µs loop: rescue latency vs harvest kept",
				Reproduced: fmt.Sprintf("at 4000 QPS: poll=0.05ms ∆P99 %+.2f ms / sec%% %.1f vs poll=10ms ∆P99 %+.2f ms / sec%% %.1f", dFast, fast.Breakdown.SecondaryPct, dSlow, slow.Breakdown.SecondaryPct),
				Match:      true,
			}
		},
	},
	{
		// Faster growth harvests more but re-shrinks more often; the
		// average load leaves the secondary headroom to grow back into.
		name:     "ablation-holdoff",
		describe: "ablation — blind-isolation grow holdoff swept: harvest bought vs tail risked",
		title:    "Grow-holdoff ablation — B=8 blind isolation, high bully at 2000 QPS",
		layout:   ablationTable, axis: "holdoff", width: 10,
		points: func() []point {
			const base = "standalone/qps=2000"
			return []point{
				{cell: base, label: "alone", qps: 2000},
				{cell: "holdoff=0.5ms/qps=2000", label: "0.5ms", qps: 2000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8, GrowHoldoff: 500 * sim.Microsecond}, baseline: base},
				{cell: "holdoff=1ms/qps=2000", label: "1ms", qps: 2000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8, GrowHoldoff: 1 * sim.Millisecond}, baseline: base},
				{cell: "holdoff=5ms/qps=2000", label: "5ms", qps: 2000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8, GrowHoldoff: 5 * sim.Millisecond}, baseline: base},
				{cell: "holdoff=20ms/qps=2000", label: "20ms", qps: 2000, bully: BullyHigh, policy: &isolation.Blind{BufferCores: 8, GrowHoldoff: 20 * sim.Millisecond}, baseline: base},
			}
		},
		compare: func(get func(string) SingleResult) comparison {
			fast, slow := get("holdoff=0.5ms/qps=2000"), get("holdoff=20ms/qps=2000")
			return comparison{
				Figure:     "ablation-holdoff",
				Paper:      "grow holdoff sweep: faster growth harvests more but re-shrinks more often",
				Reproduced: fmt.Sprintf("at 2000 QPS: holdoff=0.5ms sec%% %.1f / P99 %.2f ms vs holdoff=20ms sec%% %.1f / P99 %.2f ms", fast.Breakdown.SecondaryPct, fast.Latency.P99Ms, slow.Breakdown.SecondaryPct, slow.Latency.P99Ms),
				Match:      true,
			}
		},
	},
}

// singleCell builds one independent single-machine cell. Cells whose
// policy identity is fully captured by its parameters carry a shared
// key: their result depends only on (qps, bully, policy, scale), and
// the same simulation recurs across figures — the standalone baselines
// of Figs. 4–8 and the headline, Fig. 8's bars versus the Figs. 4–7
// sweeps, the ablation sweeps versus Fig. 5 — so a registry run (or a
// shard plan) executes each exactly once. A key spells out the
// resolved configuration, so a policy field left zero for its default
// and one set to that default share it.
func singleCell(name string, qps float64, bully BullyMode, pol isolation.Policy, scale Scale) Cell {
	c := Cell{
		Name:      name,
		Cost:      float64(scale.Queries),
		Run:       func() any { return RunSingle(qps, bully, pol, scale) },
		TracedRun: func(tr *simtrace.Tracer) any { return RunSingleTraced(qps, bully, pol, scale, tr) },
	}
	suffix := fmt.Sprintf("bully=%s/qps=%g/queries=%d/warmup=%d/seed=%d",
		bully, qps, scale.Queries, scale.Warmup, scale.Seed)
	switch p := pol.(type) {
	case nil:
		c.Key = "single/none/" + suffix
	case *isolation.Blind:
		cfg := p.Config()
		c.Key = fmt.Sprintf("single/blind=%d/poll=%d/hold=%d/%s",
			cfg.BufferCores, cfg.PollInterval, cfg.GrowHoldoff, suffix)
	case isolation.StaticCores:
		c.Key = fmt.Sprintf("single/cores=%d/%s", p.Cores, suffix)
	case isolation.CycleCap:
		c.Key = fmt.Sprintf("single/cycles=%g/window=%d/%s", p.Fraction, p.EffectiveWindow(), suffix)
	}
	return c
}

// experiment registers the sweep: one singleCell per point, assembled
// into a SweepResult.
func (sw sweep) experiment() Experiment {
	return Experiment{
		Name:         sw.name,
		Describe:     sw.describe,
		DecodeResult: DecodeJSONResult[SingleResult],
		Cells: func(s ScaleSpec) []Cell {
			pts := sw.points()
			cells := make([]Cell, len(pts))
			for i, p := range pts {
				cells[i] = singleCell(p.cell, p.qps, p.bully, p.policy, s.Single)
			}
			return cells
		},
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			return sw.assemble(sw.points(), cells, results)
		},
	}
}

// assemble folds cell results (points order) into the sweep's value and
// report.
func (sw sweep) assemble(pts []point, cells []Cell, results []any) (SweepResult, Report) {
	v := make(SweepResult, len(cells))
	for i, c := range cells {
		v[c.Name] = results[i].(SingleResult)
	}
	rep := Report{Rows: singleRows(cells, results), Forensics: singleForensics(cells, results)}
	if sw.series {
		rep.Series = singleSeries(cells, results)
	}
	switch sw.layout {
	case summaryTable:
		p := pts[len(pts)-1]
		alone, colo := v[p.baseline].Breakdown, v[p.cell].Breakdown
		rep.Table = fmt.Sprintf("%s: standalone %.0f%% → colocated %.0f%% (secondary %.0f%%)\n",
			sw.title, alone.UsedPct(), colo.UsedPct(), colo.SecondaryPct)
		rep.Rows = []Row{{Cell: sw.name, Metrics: []Metric{
			{"standalone_used_pct", alone.UsedPct()},
			{"colocated_used_pct", colo.UsedPct()},
			{"secondary_pct", colo.SecondaryPct},
		}}}
	case ablationTable:
		rep.Table = sw.ablationTable(pts, v)
		for i, p := range pts {
			rep.Rows[i].Metrics = append(rep.Rows[i].Metrics, Metric{"d99ms", p.d99(v)})
		}
	default:
		rep.Table = sw.figureTable(pts, v)
	}
	return v, rep
}

// d99 is the point's P99 degradation against its baseline; a point
// without one is its own baseline.
func (p point) d99(v SweepResult) float64 {
	base := v[p.cell]
	if p.baseline != "" {
		base = v[p.baseline]
	}
	_, _, d := v[p.cell].DegradationMs(base)
	return d
}

// progressShare is r's secondary progress as a fraction of base's —
// §6.1.4's "progress under isolation" against the unrestricted run.
func progressShare(r, base SingleResult) float64 {
	if base.BullyProgress == 0 {
		return 0
	}
	return r.BullyProgress / base.BullyProgress
}

// figureTable renders a deltaTable or progressTable sweep.
func (sw sweep) figureTable(pts []point, v SweepResult) string {
	var b strings.Builder
	header(&b, sw.title)
	var shares []string
	for _, p := range pts {
		if p.label != "" {
			row(&b, p.label, v[p.cell])
		}
		switch {
		case p.baseline == "":
		case sw.layout == progressTable:
			shares = append(shares, fmt.Sprintf("%s %.0f%%", p.cell, 100*progressShare(v[p.cell], v[p.baseline])))
		default:
			d50, d95, d99 := v[p.cell].DegradationMs(v[p.baseline])
			fmt.Fprintf(&b, "%-22s %6s  %+7.2f %+7.2f %+7.2f\n", "  ∆ vs standalone", "", d50, d95, d99)
		}
	}
	if len(shares) > 0 {
		fmt.Fprintf(&b, "\nsecondary progress vs unrestricted: %s\n", strings.Join(shares, ", "))
	}
	return b.String()
}

// ablationTable renders an ablationTable sweep.
func (sw sweep) ablationTable(pts []point, v SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", sw.title)
	fmt.Fprintf(&b, "%-*s %8s %8s %8s %8s %8s\n", sw.width, sw.axis, "p99ms", "d99ms", "drop%", "sec%", "idle%")
	b.WriteString(strings.Repeat("-", sw.width+46) + "\n")
	for _, p := range pts {
		r := v[p.cell]
		d99 := "—"
		if p.baseline != "" {
			d99 = fmt.Sprintf("%.2f", p.d99(v))
		}
		fmt.Fprintf(&b, "%-*s %8.2f %8s %8.2f %8.1f %8.1f\n", sw.width, p.label,
			r.Latency.P99Ms, d99, 100*r.DropRate, r.Breakdown.SecondaryPct, r.Breakdown.IdlePct)
	}
	return b.String()
}

// comparison answers the sweep's report row. It is the one missing-cell
// guard for every sweep row: compare reads cells by name, and if any it
// read is absent (a sweep edit dropped the point) or measured nothing,
// the row becomes the loud ✗ "probed cell missing" row instead of
// comparing zero values.
func (sw sweep) comparison(v SweepResult) comparison {
	ok := true
	c := sw.compare(func(cell string) SingleResult {
		r, found := v[cell]
		ok = ok && found && r.Latency.Count > 0
		return r
	})
	if !ok {
		return missing(c.Figure, c.Paper)
	}
	return c
}

// sweepComparisons answers the report rows of the sweeps present in the
// run, in declaration order.
func sweepComparisons(res RunResult, sweeps []sweep) []comparison {
	var out []comparison
	for _, sw := range sweeps {
		if v, ok := res.Value(sw.name).(SweepResult); ok {
			out = append(out, sw.comparison(v))
		}
	}
	return out
}
