package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/harvest"
	"perfiso/internal/isolation"
	"perfiso/internal/simtrace"
	"perfiso/internal/stats"
)

// A workload builds one run's fixed work from the seed. setup is what
// setup_s times; the job it returns is the timed phase and may run more
// than once (a traced run repeats it).
type workload struct {
	name  string
	setup func(cfg config, sp *spanLog) (job, error)
}

// job runs one pass of a workload. sp, when non-nil, records a span
// around each call the benchmark makes into the program.
type job func(sp *spanLog) pass

// qps is the primary's offered load in the single-machine workloads:
// the paper's peak (§6.1), where colocation hurts the tail most.
const qps = 4000

// workloads lists the benchmark's workloads, each fixed work of about
// 10 s on the reference host. README.md records why each was chosen and what it measured at the
// commit that introduced it.
func workloads() []workload {
	return []workload{
		singleWorkload("colocated", singleSpec{cells: 16, queries: 100000, warmup: 20000, colocated: true}),
		singleWorkload("standalone", singleSpec{cells: 16, queries: 100000, warmup: 20000}),
		harvestWorkload("cluster-harvest", harvestSpec{cells: 6, queries: 24000, warmup: 4000}),
		singleWorkload("colocated-traced", singleSpec{cells: 8, queries: 18000, warmup: 2000, colocated: true, traced: true}),
		reproWorkload("repro-test", experiments.TestSpec()),
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cell is one independent seeded simulation.
type cell struct {
	name string
	run  func(sp *spanLog, worker int) cellOut
}

// cellOut is what a cell yields: the result the digest covers, its
// simulated metrics (reported as medians over cells), host-side layer
// quantities (reported as sums), and a failed output check.
type cellOut struct {
	result any
	sim    map[string]float64
	sums   map[string]float64
	err    error
}

// pass is one execution of a workload's fixed work.
type pass struct {
	// wall is the host time of the whole pass; cellSec the host time of
	// each cell; busy/poolWall give the pool's idle share.
	wall, busy, poolWall float64
	cellSec              []float64
	sim                  []map[string]float64
	sums                 map[string]float64
	attempted, failed    int
	failures             []string
	digest               string
	h                    hash.Hash
}

func newPass() pass { return pass{sums: map[string]float64{}, h: sha256.New()} }

// record hashes one simulated outcome into the digest, in call order.
func (p *pass) record(v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		blob = []byte(err.Error())
	}
	p.h.Write(append(blob, '\n'))
}

// op counts one checked operation.
func (p *pass) op(name string, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

func (p *pass) add(name string, o cellOut) {
	p.op(name, o.err)
	if o.result != nil {
		p.record(o.result)
	}
	if o.sim != nil {
		p.sim = append(p.sim, o.sim)
	}
	for _, k := range sortedKeys(o.sums) {
		p.sums[k] += o.sums[k]
	}
}

func (p *pass) seal() { p.digest = "sha256:" + hex.EncodeToString(p.h.Sum(nil)) }

// cellValues are one simulated metric's values over the cells that
// report it.
func (p pass) cellValues(key string) []float64 {
	var v []float64
	for _, m := range p.sim {
		if x, ok := m[key]; ok {
			v = append(v, x)
		}
	}
	return v
}

// value is one metric of the pass: its pass-wide value where there is
// one, else the median over the cells that report it. ok is false when
// the workload has no such metric.
func (p pass) value(key string) (v float64, ok bool) {
	if v, ok := p.sums[key]; ok {
		return v, true
	}
	cells := p.cellValues(key)
	return median(cells), len(cells) > 0
}

// outcomes gives the outcome metrics the workload has.
func (p pass) outcomes() map[string]float64 {
	out := map[string]float64{}
	for _, d := range outcomeMetrics {
		if v, ok := p.value(d.Name); ok {
			out[d.Name] = v
		}
	}
	return out
}

// runPool drains cells on the benchmark's worker pool. A panicking
// cell is recovered and counted as a failed op; the others still run.
func runPool(cells []cell, sp *spanLog) pass {
	outs := make([]cellOut, len(cells))
	secs := make([]float64, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now() //perfiso:allow walltime benchmark host timing
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				t0 := time.Now() //perfiso:allow walltime benchmark host timing
				outs[i] = runCell(cells[i], sp, w)
				secs[i] = time.Since(t0).Seconds() //perfiso:allow walltime benchmark host timing
			}
		}(w)
	}
	wg.Wait()
	p := newPass()
	p.wall = time.Since(start).Seconds() //perfiso:allow walltime benchmark host timing
	p.poolWall = p.wall
	p.cellSec = secs
	for i, o := range outs {
		p.busy += secs[i]
		p.add(cells[i].name, o)
	}
	p.seal()
	return p
}

func runCell(c cell, sp *spanLog, worker int) (out cellOut) {
	defer func() {
		if r := recover(); r != nil {
			out = cellOut{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return c.run(sp, worker)
}

// singleSpec sizes a single-machine workload: IndexServe at qps,
// standalone or colocated with the 48-thread CPU bully under blind
// isolation with 8 buffer cores (the paper's central configuration).
type singleSpec struct {
	cells, queries, warmup int
	colocated, traced      bool
}

func singleWorkload(name string, s singleSpec) workload {
	return workload{name: name, setup: func(cfg config, _ *spanLog) (job, error) {
		// Traced cells export one at a time, as `perfiso-repro run
		// -simtrace` does; concurrent exports would make peak RSS depend
		// on how the two workers' cells happen to overlap.
		var export sync.Mutex
		cells := make([]cell, s.cells)
		for i := range cells {
			cells[i] = s.cell(cfg.seed+uint64(i), &export)
		}
		return func(sp *spanLog) pass { return runPool(cells, sp) }, nil
	}}
}

func (s singleSpec) cell(seed uint64, export *sync.Mutex) cell {
	name := fmt.Sprintf("seed=%d", seed)
	return cell{name: name, run: func(sp *spanLog, worker int) cellOut {
		scale := experiments.Scale{Queries: s.queries, Warmup: s.warmup, Seed: seed}
		bully := experiments.BullyOff
		var pol isolation.Policy
		if s.colocated {
			bully, pol = experiments.BullyHigh, &isolation.Blind{BufferCores: 8}
		}
		var tr *simtrace.Tracer
		if s.traced {
			tr = simtrace.New()
		}
		var r experiments.SingleResult
		sp.span("experiments.RunSingleTraced", name, worker, func() {
			r = experiments.RunSingleTraced(qps, bully, pol, scale, tr)
		})
		out := cellOut{result: r, sim: singleSim(r, s.colocated), err: checkSingle(r, s.queries)}
		if tr != nil {
			export.Lock()
			defer export.Unlock()
			var buf bytes.Buffer
			var err error
			exportS := sp.span("simtrace.WriteChrome", name, worker, func() { err = simtrace.WriteChrome(&buf, tr) })
			if err == nil {
				sp.span("simtrace.ValidateChrome", name, worker, func() { err = simtrace.ValidateChrome(buf.Bytes()) })
			}
			if err != nil && out.err == nil {
				out.err = fmt.Errorf("chrome export: %w", err)
			}
			out.sums = map[string]float64{
				"simtrace.events":    float64(tr.Len()),
				"simtrace.export_s":  exportS,
				"simtrace.export_mb": float64(buf.Len()) / 1e6,
			}
		}
		return out
	}}
}

func singleSim(r experiments.SingleResult, colocated bool) map[string]float64 {
	m := map[string]float64{
		"drop_pct":                    100 * r.DropRate,
		"cpumodel.idle_pct":           r.Breakdown.IdlePct,
		"cpumodel.primary_pct":        r.Breakdown.PrimaryPct,
		"indexserve.measured_queries": float64(r.Latency.Count),
	}
	if colocated {
		m["harvested_cpu_pct"] = r.Breakdown.SecondaryPct
	}
	addForensics(m, r.Forensics)
	return m
}

// addForensics adds the exact latencies of the cell's P50 and P99
// queries (order statistics of the measured window; the latency
// summary's percentiles are 1%-wide histogram buckets, which read the
// same on nearly every seed) and the P99 query's latency decomposition.
func addForensics(m map[string]float64, f *simtrace.CellForensics) {
	if f == nil {
		return
	}
	for _, row := range f.Rows {
		switch row.Quantile {
		case "p50":
			m["primary_p50_ms"] = float64(row.Record.Latency) / 1e6
		case "p99":
			m["primary_p99_ms"] = float64(row.Record.Latency) / 1e6
			for _, c := range simtrace.Causes {
				m["forensics.p99_"+c+"_ms"] = float64(row.Record.Cause(c)) / 1e6
			}
		}
	}
}

func checkSingle(r experiments.SingleResult, queries int) error {
	if err := checkLatency("primary", r.Latency, queries); err != nil {
		return err
	}
	if !(r.DropRate >= 0 && r.DropRate <= 1) {
		return fmt.Errorf("drop rate %v outside [0, 1]", r.DropRate)
	}
	return nil
}

// checkLatency requires finite, ordered percentiles and no more
// measured queries than were submitted.
func checkLatency(what string, l stats.LatencySummary, queries int) error {
	for _, v := range []float64{l.MeanMs, l.P50Ms, l.P95Ms, l.P99Ms, l.MaxMs} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s latency not finite: %+v", what, l)
		}
	}
	if !(l.P50Ms <= l.P95Ms && l.P95Ms <= l.P99Ms) {
		return fmt.Errorf("%s percentiles out of order: p50 %v p95 %v p99 %v", what, l.P50Ms, l.P95Ms, l.P99Ms)
	}
	if l.Count == 0 || l.Count > uint64(queries) {
		return fmt.Errorf("%s measured %d queries of %d submitted", what, l.Count, queries)
	}
	return nil
}

// harvestSpec sizes the cluster-harvest workload: the harvest-frontier
// experiment's cluster (DefaultHarvestScale) with a longer trace; cell
// i runs placement policy i mod 3.
type harvestSpec struct {
	cells, queries, warmup int
}

func harvestWorkload(name string, s harvestSpec) workload {
	return workload{name: name, setup: func(cfg config, _ *spanLog) (job, error) {
		exp, ok := experiments.DefaultRegistry().Get("harvest-frontier")
		if !ok {
			return nil, fmt.Errorf("no harvest-frontier experiment")
		}
		policies := harvest.PolicyNames()
		cells := make([]cell, s.cells)
		for i := range cells {
			scale := experiments.DefaultHarvestScale()
			scale.Queries, scale.Warmup, scale.Seed = s.queries, s.warmup, cfg.seed+uint64(i)
			policy := policies[i%len(policies)]
			var run func() any
			for _, c := range exp.Cells(experiments.ScaleSpec{Harvest: scale}) {
				if c.Name == "policy="+policy {
					run = c.Run
				}
			}
			if run == nil {
				return nil, fmt.Errorf("harvest-frontier has no cell for policy %s", policy)
			}
			name := fmt.Sprintf("policy=%s/seed=%d", policy, scale.Seed)
			cells[i] = cell{name: name, run: func(sp *spanLog, worker int) cellOut {
				var v any
				sp.span("experiments.Cell.Run", name, worker, func() { v = run() })
				p := v.(experiments.HarvestPoint)
				return cellOut{result: p, sim: harvestSim(p), err: checkHarvest(p, scale)}
			}}
		}
		return func(sp *spanLog) pass {
			p := runPool(cells, sp)
			// The TLA percentiles are 1%-wide histogram buckets, and the
			// median cell reads the same bucket on nearly every seed; the
			// mean over cells resolves changes within a bucket.
			for _, k := range []string{"primary_p50_ms", "primary_p99_ms"} {
				if v := p.cellValues(k); len(v) > 0 {
					p.sums[k] = mean(v)
				}
			}
			return p
		}, nil
	}}
}

func harvestSim(p experiments.HarvestPoint) map[string]float64 {
	return map[string]float64{
		"primary_p50_ms":              p.TLA.P50Ms,
		"primary_p99_ms":              p.TLA.P99Ms,
		"batch_tasks_per_s":           p.Throughput,
		"cluster.server_p99_ms":       p.Server.P99Ms,
		"indexserve.measured_queries": float64(p.Server.Count),
	}
}

func checkHarvest(p experiments.HarvestPoint, s experiments.HarvestScale) error {
	if err := checkLatency("tla", p.TLA, s.Queries); err != nil {
		return err
	}
	// Each query fans out to one server per column.
	if err := checkLatency("server", p.Server, s.Queries*s.Columns); err != nil {
		return err
	}
	if submitted := s.Jobs * s.TasksPerJob; p.TasksCompleted < 0 || p.TasksCompleted > submitted {
		return fmt.Errorf("%d tasks completed of %d submitted", p.TasksCompleted, submitted)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
