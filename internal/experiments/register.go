package experiments

import (
	"fmt"

	"perfiso/internal/cluster"
	"perfiso/internal/stats"
)

// singleMetrics flattens one single-machine cell for the artifacts.
func singleMetrics(r SingleResult) []Metric {
	return []Metric{
		{"qps", r.QPS},
		{"p50ms", r.Latency.P50Ms},
		{"p95ms", r.Latency.P95Ms},
		{"p99ms", r.Latency.P99Ms},
		{"primary_pct", r.Breakdown.PrimaryPct},
		{"secondary_pct", r.Breakdown.SecondaryPct},
		{"idle_pct", r.Breakdown.IdlePct},
		{"drop_pct", 100 * r.DropRate},
		{"bully_progress", r.BullyProgress},
	}
}

// latencyMetrics flattens one layer's latency summary under a prefix.
func latencyMetrics(prefix string, l stats.LatencySummary) []Metric {
	return []Metric{
		{prefix + "_p50ms", l.P50Ms},
		{prefix + "_p95ms", l.P95Ms},
		{prefix + "_p99ms", l.P99Ms},
	}
}

// singleRows pairs cells with their results, in cell order.
func singleRows(cells []Cell, results []any) []Row {
	rows := make([]Row, len(cells))
	for i, c := range cells {
		rows[i] = Row{Cell: c.Name, Metrics: singleMetrics(results[i].(SingleResult))}
	}
	return rows
}

// clusterRow flattens one Fig. 9 scenario.
func clusterRow(name string, r cluster.Result) Row {
	m := latencyMetrics("server", r.Server)
	m = append(m, latencyMetrics("mla", r.MLA)...)
	m = append(m, latencyMetrics("tla", r.TLA)...)
	m = append(m,
		Metric{"cpu_used_pct", r.AvgCPUUsedPct},
		Metric{"secondary_pct", r.AvgSecondaryPct},
		Metric{"drop_pct", 100 * r.DropRate})
	return Row{Cell: name, Metrics: m}
}

// DefaultRegistry builds the registry holding every experiment of the
// reproduction: the paper's figures 4–10 and §1 headline, plus the
// repo's extensions (full stack, DES timeline, harvest frontier). A
// fresh registry is returned each call so tests may mutate theirs.
func DefaultRegistry() *Registry {
	r := NewRegistry()

	for _, sw := range paperSweeps {
		r.MustRegister(sw.experiment())
	}

	r.MustRegister(Experiment{
		Name:         "fig9",
		DecodeResult: DecodeJSONResult[cluster.Result],
		Describe:     "Figs. 9a–9c — per-layer cluster latency: standalone vs CPU-/disk-bound secondaries",
		Cells:        func(s ScaleSpec) []Cell { return fig9Cells(s.Cluster) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleFig9(results)
			rows := []Row{
				clusterRow("standalone", f.Standalone),
				clusterRow("cpu-bound", f.CPUBound),
				clusterRow("disk-bound", f.DiskBound),
			}
			return f, Report{Table: f.Table(), Rows: rows}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fig10",
		DecodeResult: DecodeJSONResult[cluster.ProductionResult],
		Describe:     "Fig. 10 — 650-machine production hour via the calibrated fluid model",
		Cells:        func(s ScaleSpec) []Cell { return fig10Cells() },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			p := results[0].(cluster.ProductionResult)
			rows := []Row{{Cell: "production-hour", Metrics: []Metric{
				{"avg_cpu_used_pct", p.AvgCPUUsedPct},
				{"avg_p99ms", p.AvgP99ms},
				{"max_p99ms", p.MaxP99ms},
				{"samples", float64(len(p.Samples))},
			}}}
			series := []SeriesRow{{Cell: "production-hour", Tracks: productionSeries(p)}}
			return p, Report{Table: Fig10Table(p), Rows: rows, Series: series}
		},
	})

	r.MustRegister(Experiment{
		Name:         "fullstack",
		DecodeResult: DecodeJSONResult[FullStackResult],
		Describe:     "extension — every governor engaged against all secondaries at once",
		Cells: func(s ScaleSpec) []Cell {
			return []Cell{{
				Name: fmt.Sprintf("qps=%.0f", s.FullStackQPS),
				Cost: float64(s.Single.Queries),
				Run:  func() any { return RunFullStack(s.FullStackQPS, s.Single) },
			}}
		},
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := results[0].(FullStackResult)
			rows := []Row{{Cell: fmt.Sprintf("qps=%.0f", s.FullStackQPS), Metrics: []Metric{
				{"p50ms", f.Latency.P50Ms},
				{"p95ms", f.Latency.P95Ms},
				{"p99ms", f.Latency.P99Ms},
				{"drop_pct", 100 * f.DropRate},
				{"cpu_bully_progress", f.CPUBullyProgress},
				{"disk_bully_mbps", f.DiskBullyMBps},
				{"hdfs_client_mbps", f.HDFSClientMBps},
				{"shuffle_mbps", f.ShuffleMBps},
				{"used_pct", f.UsedPct},
				{"secondary_pct", f.SecondaryPct},
			}}}
			return f, Report{Table: f.Table(), Rows: rows}
		},
	})

	r.MustRegister(Experiment{
		Name:         "timeline",
		DecodeResult: DecodeJSONResult[TimelineResult],
		Describe:     "extension — single-machine DES under the diurnal curve (Fig. 10 cross-check)",
		Cells: func(s ScaleSpec) []Cell {
			// The timeline replays its diurnal curve for the whole span,
			// so cost ≈ queries served ≈ mean rate × duration.
			return []Cell{{
				Name: "diurnal",
				Cost: 0.725 * s.Timeline.PeakQPS * s.Timeline.Duration.Seconds(),
				Run:  func() any { return RunTimeline(s.Timeline) },
			}}
		},
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			t := results[0].(TimelineResult)
			rows := []Row{{Cell: "diurnal", Metrics: []Metric{
				{"avg_cpu_used_pct", t.AvgCPUUsedPct},
				{"avg_p99ms", t.AvgP99ms},
				{"max_p99ms", t.MaxP99ms},
				{"windows", float64(len(t.Samples))},
			}}}
			series := []SeriesRow{{Cell: "diurnal", Tracks: t.SeriesTracks()}}
			return t, Report{Table: t.Table(), Rows: rows, Series: series}
		},
	})

	harvestPointMetrics := func(p HarvestPoint) []Metric {
		m := []Metric{
			{"tasks_completed", float64(p.TasksCompleted)},
			{"tasks_per_sec", p.Throughput},
			{"harvested_cpu_sec", p.HarvestedCPUSeconds},
		}
		m = append(m, latencyMetrics("server", p.Server)...)
		m = append(m, latencyMetrics("tla", p.TLA)...)
		return append(m,
			Metric{"placements", float64(p.Placements)},
			Metric{"preemptions", float64(p.Preemptions)},
			Metric{"failure_requeues", float64(p.FailureRequeues)})
	}

	r.MustRegister(Experiment{
		Name:         "harvest-frontier",
		DecodeResult: DecodeJSONResult[HarvestPoint],
		Describe:     "extension — batch-harvest throughput vs primary P99 per placement policy",
		Cells:        func(s ScaleSpec) []Cell { return harvestCells(s.Harvest) },
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleHarvestFrontier(s.Harvest, results)
			rows := make([]Row, len(f.Points))
			var series []SeriesRow
			for i, p := range f.Points {
				rows[i] = Row{Cell: "policy=" + p.Policy, Metrics: harvestPointMetrics(p)}
				if len(p.Series) > 0 {
					series = append(series, SeriesRow{Cell: "policy=" + p.Policy, Tracks: p.Series})
				}
			}
			return f, Report{Table: f.Table(), Rows: rows, Series: series}
		},
	})

	r.MustRegister(Experiment{
		Name:         "harvest-trace-frontier",
		DecodeResult: DecodeJSONResult[HarvestPoint],
		Describe:     "extension — harvest frontier under a replayed bursty, heavy-tailed batch trace vs the synthetic backlog",
		Cells:        harvestTraceCells,
		Assemble: func(s ScaleSpec, cells []Cell, results []any) (any, Report) {
			f := assembleHarvestTraceFrontier(s, cells, results)
			rows := make([]Row, len(f.Points))
			var series []SeriesRow
			for i, p := range f.Points {
				cell := "policy=" + p.Policy + "/src=" + p.Source
				rows[i] = Row{Cell: cell, Metrics: harvestPointMetrics(p.HarvestPoint)}
				if len(p.Series) > 0 {
					series = append(series, SeriesRow{Cell: cell, Tracks: p.Series})
				}
			}
			return f, Report{Table: f.Table(), Rows: rows, Series: series}
		},
	})

	for _, sw := range ablationSweeps {
		r.MustRegister(sw.experiment())
	}

	return r
}
