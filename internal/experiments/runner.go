package experiments

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/indexserve"
	"perfiso/internal/isolation"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// Scale sizes an experiment run. The paper replays 500k queries with a
// 100k warmup; tests and benches use smaller traces with the same
// structure.
type Scale struct {
	// Queries is the trace length, Warmup the unreported prefix.
	Queries, Warmup int
	// Seed drives trace generation and machine randomness.
	Seed uint64
}

// PaperScale is the full §5.3 trace.
func PaperScale() Scale { return Scale{Queries: 500000, Warmup: 100000, Seed: 2017} }

// TestScale keeps runs around a second of wall clock while preserving
// enough samples for a stable P99 (tail estimates need thousands).
func TestScale() Scale { return Scale{Queries: 24000, Warmup: 4000, Seed: 2017} }

// BullyMode selects the secondary intensity of §6.1: off, mid (24
// worker threads) or high (48 worker threads).
type BullyMode int

const (
	// BullyOff runs the primary standalone.
	BullyOff BullyMode = iota
	// BullyMid is the 24-thread CPU bully.
	BullyMid
	// BullyHigh is the 48-thread CPU bully.
	BullyHigh
)

// Threads maps the mode to its worker count on a 48-core machine.
func (b BullyMode) Threads() int {
	switch b {
	case BullyMid:
		return 24
	case BullyHigh:
		return 48
	}
	return 0
}

func (b BullyMode) String() string {
	switch b {
	case BullyOff:
		return "standalone"
	case BullyMid:
		return "mid"
	case BullyHigh:
		return "high"
	}
	return fmt.Sprintf("bully(%d)", int(b))
}

// SingleResult is one single-machine run (one bar group of Figs. 4–8).
type SingleResult struct {
	// Policy and Bully identify the cell.
	Policy string
	Bully  string
	// QPS is the offered load.
	QPS float64
	// Latency is the measured query-latency summary.
	Latency stats.LatencySummary
	// Breakdown is the CPU utilization split over the measured window.
	Breakdown stats.Breakdown
	// DropRate is the fraction of queries dropped at the deadline.
	DropRate float64
	// BullyProgress is the secondary's CPU-seconds over the measured
	// window — the paper's "absolute progress" (Fig. 8c).
	BullyProgress float64
	// Series carries the cell's captured time series (windowed P99,
	// queue depth, and — under blind isolation — the governor's core
	// allocation vs simulated time).
	Series []SeriesTrack `json:"Series,omitempty"`
	// Forensics is the cell's tail-forensics blame table: the
	// critical-path latency decomposition of the P50/P90/P99/P99.9
	// queries over the measured window. Durations are exact int64
	// nanoseconds, so the table round-trips through JSON and rides
	// shard/dispatch merges byte-identically.
	Forensics *simtrace.CellForensics `json:"Forensics,omitempty"`
}

// DegradationMs reports latency degradation against a baseline run at
// the same load (the y-axis of Figs. 5a, 6a, 7a).
func (r SingleResult) DegradationMs(baseline SingleResult) (p50, p95, p99 float64) {
	return r.Latency.P50Ms - baseline.Latency.P50Ms,
		r.Latency.P95Ms - baseline.Latency.P95Ms,
		r.Latency.P99Ms - baseline.Latency.P99Ms
}

// RunSingle executes one single-machine colocation cell: IndexServe at
// qps colocated with the selected bully under the given policy.
// A nil policy means no isolation.
func RunSingle(qps float64, bully BullyMode, pol isolation.Policy, scale Scale) SingleResult {
	return RunSingleTraced(qps, bully, pol, scale, nil)
}

// RunSingleTraced is RunSingle with an optional sim-domain tracer
// capturing per-core execution slices, query lifecycle spans, and
// controller decisions. The tracer is a pure observer: the returned
// result is byte-identical with tr nil or not.
func RunSingleTraced(qps float64, bully BullyMode, pol isolation.Policy, scale Scale, tr *simtrace.Tracer) SingleResult {
	eng := sim.NewEngine()
	cfg := node.DefaultConfig()
	cfg.Seed = scale.Seed
	n := node.New(eng, cfg)

	res := SingleResult{QPS: qps, Bully: bully.String(), Policy: "none"}
	if pol != nil {
		res.Policy = pol.Name()
	}

	var b *workload.CPUBully
	job := n.OS.CreateJob("experiment-secondary")
	if bully != BullyOff {
		b = workload.NewCPUBully(n.CPU, "bully", bully.Threads())
		b.Start()
		job.Assign(b.Proc)
	}
	if pol != nil {
		if err := pol.Install(n.OS, job); err != nil {
			panic(fmt.Sprintf("experiments: installing %s: %v", pol.Name(), err))
		}
	}
	// Held here because Uninstall drops the policy's governor.
	var gov *core.BlindIsolation
	if blind, ok := pol.(*isolation.Blind); ok {
		gov = blind.Governor()
	}
	if tr != nil {
		n.CPU.SetSimTracer(tr)
		n.Server.SetSimTracer(tr)
		if gov != nil {
			gov.SetSimTracer(tr)
		}
	}

	// The arrivals are streamed. A pre-pass over a copy of the stream
	// finds what must be planned before the run starts: the warmup
	// boundary, and the last arrival, which sets the sampler's windows
	// and the run's horizon.
	stream := workload.NewStream(workload.TraceConfig{
		Queries: scale.Queries,
		Rate:    qps,
		Seed:    scale.Seed,
	})
	queries, warmAt, last := stream.Scan(scale.Warmup)
	client := workload.NewClient(eng, func(q workload.QuerySpec) { n.Server.Submit(q) })

	// Tail forensics: the blame table covers exactly the measured
	// window, so the record log starts at the warmup cut. It covers
	// the cell's query IDs [0, queries) and never grows.
	var records *simtrace.RecordLog
	startLog := func() {
		records = simtrace.NewRecordLog(queries)
		n.Server.OnRecord = records.Append
	}
	var bullyBase float64
	if scale.Warmup > 0 && scale.Warmup < queries {
		eng.At(warmAt, func() {
			n.ResetMeasurement()
			startLog()
			if b != nil {
				bullyBase = b.Progress()
			}
		})
	} else {
		startLog()
	}
	client.ReplayStream(stream)

	// Per-cell time series: sample the tail, the run queue and (under
	// blind isolation) the governor's allocation at window boundaries
	// across the replayed span. The sampler's events are part of the
	// seeded simulation, so the tracks are bit-identical everywhere the
	// scalar metrics are.
	smp := newSampler(eng, last.Sub(0))
	winLat := stats.NewWindowedLatency(smp.window)
	prevResponse := n.Server.OnResponse
	n.Server.OnResponse = func(r indexserve.Response) {
		winLat.Add(eng.Now(), r.Latency)
		if prevResponse != nil {
			prevResponse(r)
		}
	}
	smp.probe("p99_ms", "ms", func(w int) float64 {
		if n, p99 := winLat.Window(w); n > 0 {
			return p99 / float64(sim.Millisecond)
		}
		return 0
	})
	smp.probe("queued", "threads", func(int) float64 { return float64(n.CPU.QueuedThreads()) })
	if gov != nil {
		smp.probe("alloc_cores", "cores", func(int) float64 { return float64(gov.Allocated()) })
	}
	smp.start()

	eng.Run(last.Add(sim.Duration(cfg.IndexServe.Deadline) + sim.Second))
	res.Series = smp.tracks()

	res.Latency = n.Server.Latency.Summary()
	res.Breakdown = n.CPU.Breakdown()
	res.DropRate = n.Server.DropRate()
	res.Forensics = records.BlameTable()
	if b != nil {
		res.BullyProgress = b.Progress() - bullyBase
	}
	if pol != nil {
		pol.Uninstall(n.OS, job)
	}
	// After Uninstall: its kill switch counts a grow and schedules
	// events.
	foldCell(eng, gov, nil)
	n.CPU.CheckInvariants()
	return res
}
