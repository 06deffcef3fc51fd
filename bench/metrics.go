package main

// metricDef declares one metric as BENCHMARK.json does. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression. Sim marks a metric of
// the model's clock or outcome: it repeats exactly per seed, so compare
// pairs its runs by seed and allows it no change at all.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Sim    bool    `json:"-"`
}

// endToEndMetrics are printed by untraced runs on every workload, so
// each is defined, and nonzero, on all of them. Host metrics are wall
// clock and memory on the measuring machine; primary_* are simulated
// time. The host bounds are the widest allowed because the reference
// host's own drift reaches them (README.md gives the spreads). A
// simulated metric's bound only has to cover its spread over seeds;
// compare, pairing runs by seed, holds it to bound 0.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cell_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "primary_p50_ms", Unit: "ms", Better: "lower", Bound: 0.05, Sim: true},
	{Name: "primary_p99_ms", Unit: "ms", Better: "lower", Bound: 0.1, Sim: true},
}

// outcomeMetrics are the simulated outcomes only some workloads have
// (a standalone primary harvests nothing; only repro-test renders the
// report). Untraced runs print those their workload has on the meta
// line, and compare judges them there at bound 0.
var outcomeMetrics = []metricDef{
	{Name: "harvested_cpu_pct", Unit: "%", Better: "higher", Sim: true},
	{Name: "batch_tasks_per_s", Unit: "tasks/sim-s", Better: "higher", Sim: true},
	{Name: "drop_pct", Unit: "%", Better: "lower", Sim: true},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Sim: true},
	{Name: "paper_misses", Unit: "count", Better: "lower", Sim: true},
}

// perLayerMetrics are printed by traced runs (-trace 1), followed by
// the outcomes and the failed share, zero where a workload has none.
var perLayerMetrics = func() []metricDef {
	var ds []metricDef
	for _, l := range layers {
		ds = append(ds, metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"})
	}
	ds = append(ds, []metricDef{
		{Name: "runtime.bg_s", Unit: "s", Better: "lower"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.max_heap_depth", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "cpumodel.idle_pct", Unit: "%", Better: "lower"},
		{Name: "cpumodel.primary_pct", Unit: "%", Better: "lower"},
		{Name: "indexserve.measured_queries", Unit: "count", Better: "higher"},
		{Name: "core.buffer_grows", Unit: "count", Better: "lower"},
		{Name: "core.buffer_shrinks", Unit: "count", Better: "lower"},
		{Name: "core.holdoff_deferrals", Unit: "count", Better: "lower"},
		{Name: "core.evictions", Unit: "count", Better: "lower"},
		{Name: "cluster.server_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "harvest.placements", Unit: "count", Better: "higher"},
		{Name: "harvest.preemptions", Unit: "count", Better: "lower"},
		{Name: "harvest.requeues", Unit: "count", Better: "lower"},
		{Name: "simtrace.events", Unit: "count", Better: "lower"},
		{Name: "simtrace.export_s", Unit: "s", Better: "lower"},
		{Name: "simtrace.export_mb", Unit: "MB", Better: "lower"},
		{Name: "forensics.p99_service_ms", Unit: "ms", Better: "lower"},
		{Name: "forensics.p99_queue_ms", Unit: "ms", Better: "lower"},
		{Name: "forensics.p99_harvest_ms", Unit: "ms", Better: "lower"},
		{Name: "forensics.p99_evict_ms", Unit: "ms", Better: "lower"},
		{Name: "forensics.p99_throttle_ms", Unit: "ms", Better: "lower"},
		{Name: "forensics.p99_disk_ms", Unit: "ms", Better: "lower"},
		{Name: "forensics.p99_spread_ms", Unit: "ms", Better: "lower"},
		{Name: "forensics.p99_other_ms", Unit: "ms", Better: "lower"},
		{Name: "experiments.pool_idle_pct", Unit: "%", Better: "lower"},
		{Name: "experiments.assemble_s", Unit: "s", Better: "lower"},
		{Name: "experiments.write_artifacts_s", Unit: "s", Better: "lower"},
		{Name: "experiments.markdown_s", Unit: "s", Better: "lower"},
		{Name: "shard.manifest_s", Unit: "s", Better: "lower"},
		{Name: "report.render_s", Unit: "s", Better: "lower"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
		{Name: "runtime.alloc_objects", Unit: "count", Better: "lower"},
		{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	}...)
	for _, d := range outcomeMetrics {
		ds = append(ds, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return append(ds, metricDef{Name: "failed_pct", Unit: "%", Better: "lower"})
}()
