// Package workload generates the tenant workloads of the evaluation:
// synthetic query traces replayed by a Poisson open-loop client (the
// 500k-query trace of §5.3), the CPU bully micro-benchmark, the DiskSPD-
// style disk bully, HDFS-like background flows, and low-level OS
// housekeeping load.
//
// # Query streams
//
// A Stream yields a trace's queries one at a time, so a replay never
// holds the trace: at 24 bytes a query, the §5.3 trace is 12 MB per
// cell. GenerateTrace and GenerateCurvedTrace collect their streams
// into slices, so each trace has one generator. A Stream holds its RNG
// by value, so copying it gives an independent cursor at the same
// point. A replayer that must plan before the run starts (the warmup
// boundary, the last arrival, the Agenda's size) reads a copy to the
// end with Scan or Len. That pre-pass draws the trace's random numbers
// once more, about two per query, and leaves the original stream
// untouched. Client.ReplayStream then replays the original through the
// same cursor Client.Replay uses for a slice.
package workload

import (
	"math"

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

// Stream yields a trace's queries one at a time, in arrival order: the
// queries GenerateTrace or GenerateCurvedTrace returns, without holding
// them. It keeps its RNG by value, so a copy of a Stream is an
// independent cursor that starts where the original stands; Scan and
// Len read such a copy.
type Stream struct {
	rng     sim.RNG
	meanGap sim.Duration
	at      sim.Time
	// id is the next query's ID; the stream ends once it reaches n.
	id, n int
	// A curved stream thins its arrivals against rate, whose maximum
	// is peak, and ends at the first candidate arrival past end.
	rate func(sec float64) float64
	peak float64
	end  sim.Time
}

// NewStream returns the stream of the open-loop Poisson arrival trace
// cfg describes: the client sends queries at exponentially distributed
// inter-arrival times regardless of completions, exactly like the
// paper's trace replayer.
func NewStream(cfg TraceConfig) Stream {
	if cfg.Queries <= 0 {
		return Stream{}
	}
	if cfg.Rate <= 0 {
		panic("workload: non-positive arrival rate")
	}
	return Stream{
		rng:     sim.SeededRNG(cfg.Seed),
		meanGap: sim.Duration(float64(sim.Second) / cfg.Rate),
		at:      cfg.Start,
		n:       cfg.Queries,
	}
}

// NewCurvedStream returns the stream of an open-loop trace whose
// instantaneous rate follows rate(t) (queries/second as a function of
// seconds), e.g. the diurnal curve of the Fig. 10 production run.
// Generation uses thinning against the curve's maximum over the span.
func NewCurvedStream(duration sim.Duration, rate func(sec float64) float64, seed uint64) Stream {
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
	return Stream{
		rng:     sim.SeededRNG(seed),
		meanGap: sim.Duration(float64(sim.Second) / peak),
		n:       math.MaxInt,
		rate:    rate,
		peak:    peak,
		end:     sim.Time(duration),
	}
}

// Next returns the next query, or false once the stream has ended. An
// ended stream draws nothing more.
func (s *Stream) Next() (QuerySpec, bool) {
	for s.id < s.n {
		s.at = s.at.Add(s.rng.ExpDuration(s.meanGap))
		if s.rate != nil {
			if s.at > s.end {
				s.n = s.id
				break
			}
			// Thin: accept with probability rate(t)/peak, clamped to
			// [0,1] — between scan samples the curve may still exceed
			// the estimated peak, and a ratio above 1 is not a
			// probability.
			p := s.rate(s.at.Seconds()) / s.peak
			if p > 1 {
				p = 1
			}
			if accept := s.rng.Float64() <= p; !accept {
				continue
			}
		}
		q := QuerySpec{ID: s.id, Arrival: s.at, Seed: s.rng.Uint64()}
		s.id++
		return q, true
	}
	return QuerySpec{}, false
}

// Scan reads a copy of the stream to its end and reports what a replay
// needs before it starts: how many queries remain, the arrival of the
// k-th of them (zero-based; zero when there are k or fewer) and the
// last arrival (zero when none remain). s itself does not move.
func (s Stream) Scan(k int) (n int, atK, last sim.Time) {
	for q, ok := s.Next(); ok; q, ok = s.Next() {
		if n == k {
			atK = q.Arrival
		}
		last = q.Arrival
		n++
	}
	return n, atK, last
}

// Len reports how many queries remain. A Poisson stream knows; a
// curved one counts them on a copy.
func (s Stream) Len() int {
	if s.rate == nil {
		return s.n - s.id
	}
	n, _, _ := s.Scan(0)
	return n
}

// collect drains the stream into a slice (nil when it is empty).
func (s Stream) collect() []QuerySpec {
	var out []QuerySpec
	if s.rate == nil && s.n > 0 {
		out = make([]QuerySpec, 0, s.n)
	}
	for q, ok := s.Next(); ok; q, ok = s.Next() {
		out = append(out, q)
	}
	return out
}

// GenerateTrace returns every query of NewStream(cfg).
func GenerateTrace(cfg TraceConfig) []QuerySpec { return NewStream(cfg).collect() }

// GenerateCurvedTrace returns every query of NewCurvedStream(duration,
// rate, seed).
func GenerateCurvedTrace(duration sim.Duration, rate func(sec float64) float64, seed uint64) []QuerySpec {
	return NewCurvedStream(duration, rate, seed).collect()
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
	for i := 1; i < len(trace); i++ {
		if trace[i].Arrival < trace[i-1].Arrival {
			a := c.eng.NewAgenda(len(trace))
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
	i := 0
	c.replay(len(trace), func() (QuerySpec, bool) {
		if i == len(trace) {
			return QuerySpec{}, false
		}
		i++
		return trace[i-1], true
	})
}

// ReplayStream schedules every query s yields, in the order and at the
// sequence numbers Replay gives the slice its generator returns, while
// the trace itself is never held: each query exists only from its
// predecessor's arrival to its own.
func (c *Client) ReplayStream(s Stream) { c.replay(s.Len(), s.Next) }

// replay is the cursor both replays share: an Agenda of n slots and
// one callback that, at each arrival, plans its successor before
// submitting itself.
func (c *Client) replay(n int, next func() (QuerySpec, bool)) {
	q, ok := next()
	if !ok {
		return
	}
	a := c.eng.NewAgenda(n)
	var arrive func()
	arrive = func() {
		cur := q
		if q, ok = next(); ok {
			a.At(q.Arrival, arrive)
		}
		c.Sent++
		c.submit(cur)
	}
	a.At(q.Arrival, arrive)
}
