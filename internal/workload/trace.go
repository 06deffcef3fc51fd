// Package workload generates the tenant workloads of the evaluation:
// synthetic query traces replayed by a Poisson open-loop client (the
// 500k-query trace of §5.3), the CPU bully micro-benchmark, the DiskSPD-
// style disk bully, HDFS-like background flows, and low-level OS
// housekeeping load.
package workload

import (
	"perfiso/internal/sim"
)

// QuerySpec is one query of a trace: an arrival offset plus the seed
// that makes its service demands reproducible wherever it is replayed.
type QuerySpec struct {
	ID      int
	Arrival sim.Time
	Seed    uint64
}

// TraceConfig parameterizes trace generation.
type TraceConfig struct {
	// Queries is the trace length (the paper uses 500k single-box,
	// 200k cluster-wide).
	Queries int
	// Rate is the Poisson arrival rate in queries per second.
	Rate float64
	// Seed makes the trace reproducible.
	Seed uint64
	// Start offsets the first arrival.
	Start sim.Time
}

// GenerateTrace produces an open-loop Poisson arrival trace: the client
// sends queries at exponentially distributed inter-arrival times
// regardless of completions, exactly like the paper's trace replayer.
func GenerateTrace(cfg TraceConfig) []QuerySpec {
	if cfg.Queries <= 0 {
		return nil
	}
	if cfg.Rate <= 0 {
		panic("workload: non-positive arrival rate")
	}
	r := sim.NewRNG(cfg.Seed)
	meanGap := sim.Duration(float64(sim.Second) / cfg.Rate)
	out := make([]QuerySpec, cfg.Queries)
	at := cfg.Start
	for i := range out {
		at = at.Add(r.ExpDuration(meanGap))
		out[i] = QuerySpec{ID: i, Arrival: at, Seed: r.Uint64()}
	}
	return out
}

// Client replays a trace against a submit function in an open loop.
type Client struct {
	eng    *sim.Engine
	submit func(QuerySpec)
	// Sent counts dispatched queries.
	Sent int
}

// NewClient builds a replayer; submit is invoked at each arrival.
func NewClient(eng *sim.Engine, submit func(QuerySpec)) *Client {
	return &Client{eng: eng, submit: submit}
}

// Replay schedules every arrival of the trace. Arrivals are streamed:
// an Agenda reserves the whole trace's FIFO positions up front (so the
// execution order is identical to scheduling all of them here), but
// each arrival enters the event heap only when its predecessor fires,
// keeping the heap shallow no matter how long the trace is. Streaming
// requires nondecreasing arrival times (all generators here produce
// them); an out-of-order trace falls back to up-front scheduling.
func (c *Client) Replay(trace []QuerySpec) {
	if len(trace) == 0 {
		return
	}
	a := c.eng.NewAgenda(len(trace))
	for i := 1; i < len(trace); i++ {
		if trace[i].Arrival < trace[i-1].Arrival {
			for _, q := range trace {
				q := q
				a.At(q.Arrival, func() {
					c.Sent++
					c.submit(q)
				})
			}
			return
		}
	}
	// One cursor callback serves the whole trace: each arrival plans
	// its successor before submitting itself.
	i := 0
	var arrive func()
	arrive = func() {
		q := trace[i]
		i++
		if i < len(trace) {
			a.At(trace[i].Arrival, arrive)
		}
		c.Sent++
		c.submit(q)
	}
	a.At(trace[0].Arrival, arrive)
}

// GenerateCurvedTrace produces an open-loop trace whose instantaneous
// rate follows rate(t) (queries/second as a function of seconds), e.g.
// the diurnal curve of the Fig. 10 production run. Generation uses
// thinning against the curve's maximum over the span.
func GenerateCurvedTrace(duration sim.Duration, rate func(sec float64) float64, seed uint64) []QuerySpec {
	if duration <= 0 {
		panic("workload: non-positive trace duration")
	}
	// Find the peak rate to thin against. The scan must include the
	// endpoint: a curve peaking at (or near) the end of the span would
	// otherwise be thinned against an underestimate, silently capping
	// the generated rate below the curve's.
	const peakScan = 1000
	peak := 0.0
	for i := 0; i <= peakScan; i++ {
		s := duration.Seconds() * float64(i) / peakScan
		if r := rate(s); r > peak {
			peak = r
		}
	}
	if peak <= 0 {
		panic("workload: rate curve never positive")
	}
	r := sim.NewRNG(seed)
	meanGap := sim.Duration(float64(sim.Second) / peak)
	var out []QuerySpec
	at := sim.Time(0)
	for {
		at = at.Add(r.ExpDuration(meanGap))
		if at > sim.Time(duration) {
			break
		}
		// Thin: accept with probability rate(t)/peak, clamped to [0,1] —
		// between scan samples the curve may still exceed the estimated
		// peak, and a ratio above 1 is not a probability.
		p := rate(at.Seconds()) / peak
		if p > 1 {
			p = 1
		}
		if r.Float64() <= p {
			out = append(out, QuerySpec{ID: len(out), Arrival: at, Seed: r.Uint64()})
		}
	}
	return out
}
