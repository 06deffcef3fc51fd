package workload

import (
	"math"
	"reflect"
	"testing"

	"perfiso/internal/sim"
)

// referenceTrace is GenerateTrace as it was written before streams:
// the loop whose output the streams must reproduce exactly.
func referenceTrace(cfg TraceConfig) []QuerySpec {
	if cfg.Queries <= 0 {
		return nil
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

// referenceCurvedTrace is GenerateCurvedTrace as it was written before
// streams, given the curve's peak.
func referenceCurvedTrace(duration sim.Duration, rate func(float64) float64, peak float64, seed uint64) []QuerySpec {
	r := sim.NewRNG(seed)
	meanGap := sim.Duration(float64(sim.Second) / peak)
	var out []QuerySpec
	at := sim.Time(0)
	for {
		at = at.Add(r.ExpDuration(meanGap))
		if at > sim.Time(duration) {
			break
		}
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

// drain reads a stream to its end.
func drain(s Stream) []QuerySpec {
	var out []QuerySpec
	for q, ok := s.Next(); ok; q, ok = s.Next() {
		out = append(out, q)
	}
	return out
}

// checkCursor checks that a copied cursor reports the slice's query
// count, its warmup-th arrival and its last arrival, and that reading
// the copy leaves the stream where it stood.
func checkCursor(t *testing.T, name string, s Stream, trace []QuerySpec) {
	t.Helper()
	for _, warmup := range []int{0, 1, len(trace) / 5, len(trace) - 1, len(trace)} {
		if warmup < 0 {
			continue
		}
		n, atK, last := s.Scan(warmup)
		var wantK, wantLast sim.Time
		if warmup < len(trace) {
			wantK = trace[warmup].Arrival
		}
		if len(trace) > 0 {
			wantLast = trace[len(trace)-1].Arrival
		}
		if n != len(trace) || atK != wantK || last != wantLast {
			t.Errorf("%s: Scan(%d) = (%d, %v, %v), want (%d, %v, %v)", name, warmup, n, atK, last, len(trace), wantK, wantLast)
		}
	}
	if got := s.Len(); got != len(trace) {
		t.Errorf("%s: Len %d, want %d", name, got, len(trace))
	}
	if got := drain(s); !reflect.DeepEqual(got, trace) {
		t.Errorf("%s: stream yields %d queries after Scan and Len, want the slice's %d", name, len(got), len(trace))
	}
}

func TestStreamYieldsGeneratorTrace(t *testing.T) {
	for _, seed := range []uint64{1, 7, 2017, math.MaxUint64} {
		for _, queries := range []int{0, 1, 2, 1000} {
			for _, start := range []sim.Time{0, 3 * sim.Time(sim.Second)} {
				cfg := TraceConfig{Queries: queries, Rate: 4000, Seed: seed, Start: start}
				want := referenceTrace(cfg)
				if got := drain(NewStream(cfg)); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d queries %d: stream differs from the reference", seed, queries)
				}
				if got := GenerateTrace(cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d queries %d: GenerateTrace differs from the reference", seed, queries)
				}
				checkCursor(t, "poisson", NewStream(cfg), want)
			}
		}
	}
}

func TestCurvedStreamYieldsGeneratorTrace(t *testing.T) {
	for _, seed := range []uint64{1, 7, 2017} {
		for _, c := range []struct {
			name     string
			duration sim.Duration
			peak     float64
		}{
			{"one-query", 1, 1e9}, // one candidate arrival at most, in 1 ns
			{"none", 1, 1e-3},     // no arrival within the span
			{"diurnal", 2 * sim.Second, 4000},
		} {
			rate := func(sec float64) float64 {
				return c.peak * (0.725 + 0.275*math.Sin(2*math.Pi*(sec/c.duration.Seconds()-0.25)))
			}
			s := NewCurvedStream(c.duration, rate, seed)
			want := referenceCurvedTrace(c.duration, rate, s.peak, seed)
			if got := drain(s); !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: stream yields %d queries, reference %d", c.name, seed, len(got), len(want))
			}
			if got := GenerateCurvedTrace(c.duration, rate, seed); !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: GenerateCurvedTrace differs from the reference", c.name, seed)
			}
			checkCursor(t, c.name, s, want)
		}
	}
}

// TestStreamDrawsNothingOnceEnded: Next on an ended stream leaves the
// RNG alone, so a replay's draw count is its trace's.
func TestStreamDrawsNothingOnceEnded(t *testing.T) {
	for _, s := range []Stream{
		NewStream(TraceConfig{Queries: 3, Rate: 100, Seed: 1}),
		NewCurvedStream(sim.Second, func(float64) float64 { return 50 }, 1),
	} {
		for _, ok := s.Next(); ok; _, ok = s.Next() {
		}
		before := s.rng
		if _, ok := s.Next(); ok || s.rng != before {
			t.Errorf("ended stream yielded or drew (ok=%v)", ok)
		}
	}
}

// TestReplayStreamMatchesReplay: replaying a stream submits the same
// queries at the same times and in the same order as replaying its
// slice, against the same other events.
func TestReplayStreamMatchesReplay(t *testing.T) {
	type sub struct {
		at sim.Time
		q  QuerySpec
	}
	run := func(replay func(*Client)) []sub {
		eng := sim.NewEngine()
		var got []sub
		c := NewClient(eng, func(q QuerySpec) { got = append(got, sub{eng.Now(), q}) })
		// An event at a planned arrival's instant, scheduled first,
		// must still fire first.
		eng.At(sim.Time(sim.Millisecond), func() { got = append(got, sub{at: eng.Now(), q: QuerySpec{ID: -1}}) })
		replay(c)
		eng.RunAll()
		if c.Sent != len(got)-1 {
			t.Fatalf("sent %d, delivered %d", c.Sent, len(got)-1)
		}
		return got
	}
	cfg := TraceConfig{Queries: 500, Rate: 5000, Seed: 3}
	want := run(func(c *Client) { c.Replay(GenerateTrace(cfg)) })
	if got := run(func(c *Client) { c.ReplayStream(NewStream(cfg)) }); !reflect.DeepEqual(got, want) {
		t.Fatal("ReplayStream submissions differ from Replay's")
	}
	rate := func(sec float64) float64 { return 2000 + 1000*sec }
	want = run(func(c *Client) { c.Replay(GenerateCurvedTrace(sim.Second/4, rate, 5)) })
	if got := run(func(c *Client) { c.ReplayStream(NewCurvedStream(sim.Second/4, rate, 5)) }); !reflect.DeepEqual(got, want) {
		t.Fatal("curved ReplayStream submissions differ from Replay's")
	}
}
