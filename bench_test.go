package perfiso_test

// Benchmarks for what the registered experiments do not already time:
// the whole registry run (BenchmarkReproAll), the observability
// overhead, the ablations that are not registered (quantum,
// eviction latency, burstiness), trace and figure I/O, the engine and
// scheduler hot paths, and Fig. 8's comparison at peak load. Each
// reports its headline metric via b.ReportMetric. The registered
// figures and ablations are timed by `perfiso-repro` itself
// (timing.json) and by the repository benchmark under bench/.

import (
	"fmt"
	"runtime"
	"testing"

	"perfiso/internal/cpumodel"
	"perfiso/internal/experiments"
	"perfiso/internal/isolation"
	"perfiso/internal/node"
	"perfiso/internal/obs"
	"perfiso/internal/report"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/workload"
)

// benchScale keeps each iteration around a second while preserving a
// stable P99.
func benchScale() experiments.Scale {
	return experiments.Scale{Queries: 12000, Warmup: 2000, Seed: 2017}
}

// BenchmarkSecondaryProgress runs Fig. 8's comparison at peak load:
// §6.1.4's progress discussion also references 4,000 QPS, where the
// registered fig8 runs at the paper's 2,000. It runs fig8's four
// high-bully cells and reports each isolated bar's progress as a share
// of the unrestricted bully's.
func BenchmarkSecondaryProgress(b *testing.B) {
	b.Run("qps=4000", func(b *testing.B) {
		var progress [4]float64 // no isolation, then blind, cores, cycles
		for i := 0; i < b.N; i++ {
			for j, pol := range []isolation.Policy{
				nil,
				&isolation.Blind{BufferCores: 8},
				isolation.StaticCores{Cores: 8},
				isolation.CycleCap{Fraction: 0.05},
			} {
				progress[j] = experiments.RunSingle(4000, experiments.BullyHigh, pol, benchScale()).BullyProgress
			}
		}
		for j, bar := range []string{"blind", "cores", "cycles"} {
			b.ReportMetric(100*progress[j+1]/progress[0], bar+"%")
		}
	})
}

// reproSpec sizes the registry benchmark like the other benches: small
// single-machine traces, the reduced cluster topology.
func reproSpec() experiments.ScaleSpec {
	spec := experiments.TestSpec()
	spec.Name = "bench"
	spec.Single = benchScale()
	return spec
}

// BenchmarkReproAll runs every registered experiment through the shared
// cell pool. workers=1 is the sequential baseline; workers=8 is the
// parallel run — the ns/op ratio between the two sub-benchmarks is the
// registry's wall-clock speedup on the recording machine (bounded by
// its core count; ~1× on a single-core box).
func BenchmarkReproAll(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res experiments.RunResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.DefaultRegistry().Run(experiments.RunOptions{
					Spec:    reproSpec(),
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CellCount), "cells")
			b.ReportMetric(float64(runtime.NumCPU()), "cores")
		})
	}
}

// BenchmarkStatsOverhead prices observability on one single-node
// simulation: with nothing installed, with a recording installed
// process-wide, with RNG draw accounting on top, and with a live
// sim-domain tracer capturing every span. The simulated components
// keep plain counters either way, so the recording row adds only the
// fold of those counters when the cell finishes, and the noop row's
// only hooks are the sim-trace nil checks; both must stay within noise
// (≤2%) of each other. Judge that budget from repeated, interleaved
// runs against the parent commit on one host, as the repository
// benchmark under bench/ does for whole cells.
func BenchmarkStatsOverhead(b *testing.B) {
	const qps = 4000 // peak load (§5.3)
	runPlain := func() experiments.SingleResult {
		return experiments.RunSingle(qps, experiments.BullyHigh, &isolation.Blind{BufferCores: 8}, benchScale())
	}
	for _, mode := range []struct {
		name  string
		setup func() (teardown func())
		run   func() experiments.SingleResult
	}{
		{"noop", func() func() { return func() {} }, runPlain},
		{"recording", func() func() {
			obs.SetDefault(obs.NewRecording())
			return func() { obs.SetDefault(nil) }
		}, runPlain},
		{"recording+rng", func() func() {
			obs.SetDefault(obs.NewRecording())
			sim.SetRNGAccounting(true)
			return func() {
				sim.SetRNGAccounting(false)
				obs.SetDefault(nil)
			}
		}, runPlain},
		{"simtrace", func() func() { return func() {} }, func() experiments.SingleResult {
			return experiments.RunSingleTraced(qps, experiments.BullyHigh, &isolation.Blind{BufferCores: 8}, benchScale(), simtrace.New())
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			teardown := mode.setup()
			defer teardown()
			b.ResetTimer()
			var r experiments.SingleResult
			for i := 0; i < b.N; i++ {
				r = mode.run()
			}
			b.ReportMetric(r.Latency.P99Ms, "p99ms")
		})
	}
}

// BenchmarkAblationQuantum sweeps the scheduler quantum: the
// no-isolation catastrophe is a direct function of how long a bully
// thread holds a core.
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []sim.Duration{60 * sim.Millisecond, 150 * sim.Millisecond, 300 * sim.Millisecond} {
		b.Run(fmt.Sprintf("quantum=%v", q), func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				cfg := node.DefaultConfig()
				cfg.CPU.Quantum = q
				n := node.New(eng, cfg)
				bully := workload.NewCPUBully(n.CPU, "bully", 48)
				bully.Start()
				trace := workload.GenerateTrace(workload.TraceConfig{Queries: 8000, Rate: 2000, Seed: 3})
				n.ReplayTrace(trace, 1000)
				last := trace[len(trace)-1].Arrival
				eng.Run(last.Add(sim.Duration(cfg.IndexServe.Deadline) + sim.Second))
				p99 = n.Server.Latency.Summary().P99Ms
			}
			b.ReportMetric(p99, "noiso-p99ms")
		})
	}
}

// BenchmarkRenderFigures measures the cost of the whole figure
// pipeline downstream of the simulator: load the committed test-scale
// CSVs and render every SVG. This is the marginal cost `-artifacts`
// adds to a run and what the report subcommand pays end to end.
func BenchmarkRenderFigures(b *testing.B) {
	ds, err := report.LoadDir("results/test")
	if err != nil {
		b.Fatal(err)
	}
	var figs []report.Figure
	var total int
	for i := 0; i < b.N; i++ {
		figs = report.Figures(ds)
		total = 0
		for _, f := range figs {
			total += len(f.SVG)
		}
	}
	if len(figs) == 0 {
		b.Fatal("no figures rendered")
	}
	b.ReportMetric(float64(len(figs)), "figures")
	b.ReportMetric(float64(total), "svg_bytes")
}

// BenchmarkEngineThroughput measures raw simulator event throughput —
// the denominator of every experiment's wall-clock cost.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := sim.NewEngine()
	var fire func()
	count := 0
	fire = func() {
		count++
		eng.After(1*sim.Microsecond, fire)
	}
	fire()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkSchedulerWakeup measures thread wake-to-dispatch cost on an
// idle machine — the hot path of every query burst.
func BenchmarkSchedulerWakeup(b *testing.B) {
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(1), cpumodel.DefaultConfig())
	p := m.NewProcess("p", 1)
	all := cpumodel.AllCores(48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Spawn(p, 1*sim.Microsecond, all, nil)
		eng.RunAll()
	}
}

// BenchmarkAblationEvictionLatency sweeps the dispatcher-propagation
// delay of affinity evictions, with 4 vs 8 buffer cores. Measured
// result: the tail holds even at 8 ms eviction latency, because queued
// burst workers are rescued by the primary's own completing helpers
// (wake boost + machine-wide idle stealing) long before the eviction
// lands — evidence that in this model the buffer's job is absorbing
// the *wake* burst, not surviving the eviction delay.
func BenchmarkAblationEvictionLatency(b *testing.B) {
	for _, evict := range []sim.Duration{0, 500 * sim.Microsecond, 2 * sim.Millisecond, 8 * sim.Millisecond} {
		for _, buf := range []int{4, 8} {
			b.Run(fmt.Sprintf("evict=%v/buffer=%d", evict, buf), func(b *testing.B) {
				var d99 float64
				for i := 0; i < b.N; i++ {
					base := runEvictCell(4000, 0, 0, evict)
					r := runEvictCell(4000, 48, buf, evict)
					d99 = r - base
				}
				b.ReportMetric(d99, "d99ms")
			})
		}
	}
}

// runEvictCell runs one colocation cell with the given eviction latency
// and returns the P99 in milliseconds.
func runEvictCell(qps float64, bullyThreads, buffer int, evict sim.Duration) float64 {
	eng := sim.NewEngine()
	cfg := node.DefaultConfig()
	cfg.CPU.EvictionLatency = evict
	n := node.New(eng, cfg)
	job := n.OS.CreateJob("secondary")
	if bullyThreads > 0 {
		bully := workload.NewCPUBully(n.CPU, "bully", bullyThreads)
		bully.Start()
		job.Assign(bully.Proc)
	}
	if buffer > 0 {
		pol := &isolation.Blind{BufferCores: buffer}
		if err := pol.Install(n.OS, job); err != nil {
			panic(err)
		}
	}
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: 8000, Rate: qps, Seed: 3})
	n.ReplayTrace(trace, 1500)
	last := trace[len(trace)-1].Arrival
	eng.Run(last.Add(sim.Duration(cfg.IndexServe.Deadline) + sim.Second))
	return n.Server.Latency.Summary().P99Ms
}

// BenchmarkAblationBurstiness explores the §7 (2DFQ) hypothesis: a less
// bursty primary needs fewer buffer cores. The sweep reduces the
// per-query worker fan-out across small buffers. Measured result: in
// this model even one buffer core suffices at any burstiness (the
// wake-boost/idle-steal rescue is strong), while zero collapses — so
// the hypothesis is confirmed only in the degenerate sense that the
// minimal safe buffer is already minimal.
func BenchmarkAblationBurstiness(b *testing.B) {
	for _, maxWorkers := range []int{15, 8, 4} {
		for _, buf := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("workers<=%d/buffer=%d", maxWorkers, buf), func(b *testing.B) {
				var d99 float64
				for i := 0; i < b.N; i++ {
					base := runBurstCell(maxWorkers, 0, 0)
					r := runBurstCell(maxWorkers, 48, buf)
					d99 = r - base
				}
				b.ReportMetric(d99, "d99ms")
			})
		}
	}
}

// runBurstCell runs a colocation cell with a capped worker fan-out and
// returns the P99 in milliseconds.
func runBurstCell(maxWorkers, bullyThreads, buffer int) float64 {
	eng := sim.NewEngine()
	cfg := node.DefaultConfig()
	is := *cfg.IndexServe
	if is.WorkersMin > maxWorkers {
		is.WorkersMin = maxWorkers
	}
	is.WorkersMax = maxWorkers
	cfg.IndexServe = &is
	n := node.New(eng, cfg)
	job := n.OS.CreateJob("secondary")
	if bullyThreads > 0 {
		bully := workload.NewCPUBully(n.CPU, "bully", bullyThreads)
		bully.Start()
		job.Assign(bully.Proc)
	}
	if buffer > 0 {
		pol := &isolation.Blind{BufferCores: buffer}
		if err := pol.Install(n.OS, job); err != nil {
			panic(err)
		}
	}
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: 8000, Rate: 4000, Seed: 9})
	n.ReplayTrace(trace, 1500)
	last := trace[len(trace)-1].Arrival
	eng.Run(last.Add(sim.Duration(cfg.IndexServe.Deadline) + sim.Second))
	return n.Server.Latency.Summary().P99Ms
}
