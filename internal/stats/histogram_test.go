package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"perfiso/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	// Every quantile of one sample is that sample: the bucket midpoint
	// is clamped to the exact extremes, so there is no bucketing error.
	for _, v := range []float64{42, 4e6} {
		h := NewHistogram()
		h.Add(v)
		if h.Count() != 1 || h.Min() != v || h.Max() != v {
			t.Fatalf("Add(%v): count %d, extremes %v/%v", v, h.Count(), h.Min(), h.Max())
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Fatalf("Add(%v): Quantile(%v) = %v, want %v", v, q, got, v)
			}
		}
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	r := sim.NewRNG(1)
	samples := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := r.LogNormal(4e6, 0.5)
		h.Add(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := ExactPercentile(samples, q)
		got := h.Quantile(q)
		if math.Abs(got-exact)/exact > 0.03 {
			t.Fatalf("Quantile(%v) = %v, exact = %v (err > 3%%)", q, got, exact)
		}
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	// Property: quantiles are non-decreasing in q for any sample set.
	f := func(raw []uint32) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Add(float64(v))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// Property: every quantile lies within [min, max].
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Add(float64(v))
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < h.Min() || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	h.Reset()
	if h.Count() != 0 || h.P99() != 0 {
		t.Fatal("reset histogram not empty")
	}
	h.Add(7)
	if h.Count() != 1 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := NewHistogram()
	h.Add(-3)
	if h.Min() != 0 {
		t.Fatalf("negative value not clamped: min=%v", h.Min())
	}
}

func TestSummaryMilliseconds(t *testing.T) {
	h := NewHistogram()
	h.AddDuration(4 * sim.Millisecond)
	h.AddDuration(12 * sim.Millisecond)
	s := h.Summary()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.MeanMs-8.0) > 0.01 {
		t.Fatalf("mean = %v ms, want 8", s.MeanMs)
	}
	if s.MaxMs < 11.9 || s.MaxMs > 12.1 {
		t.Fatalf("max = %v ms, want ~12", s.MaxMs)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestExactPercentile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if got := ExactPercentile(s, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := ExactPercentile(s, 0.99); got != 5 {
		t.Fatalf("p99 = %v, want 5", got)
	}
	if got := ExactPercentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
	// Input must not be reordered.
	if s[0] != 5 || s[4] != 3 {
		t.Fatal("ExactPercentile mutated its input")
	}
}

func TestHistogramEmptyQuantiles(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty mean/min/max = %v/%v/%v, want zeros",
			h.Mean(), h.Min(), h.Max())
	}
	s := h.Summary()
	if s.Count != 0 || s.P99Ms != 0 || math.IsNaN(s.MeanMs) {
		t.Fatalf("empty summary = %+v, want zeros", s)
	}
}

// denseHistogram is the reference for the span layout: the layout it
// replaced, with one count per bucket from bucket 0 up to the highest
// bucket seen, and its own copy of the bucket arithmetic.
type denseHistogram struct {
	counts        []uint64
	total         uint64
	sum, min, max float64
}

var denseLogGrowth = math.Log(1.01)

func newDenseHistogram() *denseHistogram {
	return &denseHistogram{min: math.Inf(1), max: math.Inf(-1)}
}

func (h *denseHistogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	b := 0
	if v >= 1 {
		b = 1 + int(math.Log(v)/denseLogGrowth)
	}
	for b >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *denseHistogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.min, h.max = 0, 0, math.Inf(1), math.Inf(-1)
}

func (h *denseHistogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > rank {
			v := 0.0
			if b > 0 {
				v = math.Exp((float64(b) - 0.5) * denseLogGrowth)
			}
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

func (h *denseHistogram) Summary() LatencySummary {
	const ms = float64(sim.Millisecond)
	s := LatencySummary{Count: h.total}
	if h.total > 0 {
		s.MeanMs = h.sum / float64(h.total) / ms
		s.MaxMs = h.max / ms
	}
	s.P50Ms = h.Quantile(0.50) / ms
	s.P95Ms = h.Quantile(0.95) / ms
	s.P99Ms = h.Quantile(0.99) / ms
	return s
}

var quantileGrid = []float64{-1, 0, 1e-4, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999, 1, 2}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstDense fails t unless every readout of h equals ref's bit
// for bit.
func checkAgainstDense(t *testing.T, what string, h *Histogram, ref *denseHistogram) {
	t.Helper()
	refMean, refMin, refMax := 0.0, 0.0, 0.0
	if ref.total > 0 {
		refMean, refMin, refMax = ref.sum/float64(ref.total), ref.min, ref.max
	}
	if h.Count() != ref.total || !sameBits(h.Mean(), refMean) || !sameBits(h.Min(), refMin) || !sameBits(h.Max(), refMax) {
		t.Fatalf("%s: count/mean/min/max = %d/%v/%v/%v, dense %d/%v/%v/%v",
			what, h.Count(), h.Mean(), h.Min(), h.Max(), ref.total, refMean, refMin, refMax)
	}
	for _, q := range quantileGrid {
		if got, want := h.Quantile(q), ref.Quantile(q); !sameBits(got, want) {
			t.Fatalf("%s: Quantile(%v) = %v, dense %v", what, q, got, want)
		}
	}
	got, want := h.Summary(), ref.Summary()
	if got.Count != want.Count || !sameBits(got.MeanMs, want.MeanMs) || !sameBits(got.P50Ms, want.P50Ms) ||
		!sameBits(got.P95Ms, want.P95Ms) || !sameBits(got.P99Ms, want.P99Ms) || !sameBits(got.MaxMs, want.MaxMs) {
		t.Fatalf("%s: Summary = %+v, dense %+v", what, got, want)
	}
}

func TestHistogramMatchesDense(t *testing.T) {
	r := sim.NewRNG(2017)
	logNormal := func(n int, median, sigma float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = r.LogNormal(median, sigma)
		}
		return vs
	}
	decreasing := make([]float64, 5000)
	for i := range decreasing {
		decreasing[i] = 5e6 - 997*float64(i)
	}
	extremes := []float64{0, -3, -1e-9, 0.5, 1e-300, 1, 1.01, math.Exp2(32), 1e300, math.MaxFloat64, 3.5e6, 0}
	reversed := slices.Clone(extremes)
	slices.Reverse(reversed)
	cases := []struct {
		name string
		vs   []float64
	}{
		{"lognormal", logNormal(20000, 3.5e6, 0.4)},
		{"lognormal-wide", logNormal(5000, 1e5, 2)},
		{"tied", []float64{3.5e6, 3.5e6, 3.5e6, 3.5e6, 3.5e6, 3.5e6, 3.5e6}},
		{"tied-pair", append(logNormal(1, 2e6, 0), 7e6, 7e6, 7e6, 7e6, 2e6)},
		{"decreasing", decreasing},
		{"extremes", extremes},
		{"extremes-reversed", reversed},
	}
	for _, c := range cases {
		for _, resetAt := range []int{-1, 0, len(c.vs) / 3, len(c.vs) - 1} {
			h, ref := NewHistogram(), newDenseHistogram()
			checkAgainstDense(t, c.name+" empty", h, ref)
			for i, v := range c.vs {
				if i == resetAt {
					checkAgainstDense(t, c.name+" before reset", h, ref)
					h.Reset()
					ref.Reset()
					checkAgainstDense(t, c.name+" after reset", h, ref)
				}
				h.Add(v)
				ref.Add(v)
				if len(c.vs) <= 64 {
					checkAgainstDense(t, c.name, h, ref)
				}
			}
			checkAgainstDense(t, c.name, h, ref)
		}
	}
}

// FuzzHistogram replays fuzz bytes as a stream of Adds and Resets on a
// histogram and on the dense reference, and checks every readout after
// each Reset and at the end. Each operation takes 9 bytes: a kind byte
// and 8 bytes of value. NaN and ±Inf are skipped: every caller records
// sim.Durations, which cannot produce them.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ref := NewHistogram(), newDenseHistogram()
		for len(data) >= 9 {
			kind, x := data[0], binary.LittleEndian.Uint64(data[1:9])
			data = data[9:]
			switch kind % 4 {
			case 0:
				checkAgainstDense(t, "before reset", h, ref)
				h.Reset()
				ref.Reset()
			case 1:
				// Any finite float64, negatives and subnormals included.
				v := math.Float64frombits(x)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				h.Add(v)
				ref.Add(v)
			default:
				// A latency of up to 2^32 ns, the range callers record.
				v := float64(x >> 32)
				h.Add(v)
				ref.Add(v)
			}
		}
		checkAgainstDense(t, "end", h, ref)
	})
}

// TestHistogramStoresOnlyItsSpan pins the layout's memory: a histogram
// stores at most about twice the span of buckets it has seen, however
// far from bucket 0 that span lies, and grows by few copies even when
// every value extends the span's front.
func TestHistogramStoresOnlyItsSpan(t *testing.T) {
	r := sim.NewRNG(1)
	logNormal := make([]float64, 10000)
	for i := range logNormal {
		logNormal[i] = r.LogNormal(3.5e6, 0.4)
	}
	decreasing := make([]float64, 10000)
	for i := range decreasing {
		decreasing[i] = 1e7 - 997*float64(i)
	}
	for _, c := range []struct {
		name string
		vs   []float64
	}{{"lognormal", logNormal}, {"decreasing", decreasing}} {
		var h *Histogram
		allocs := testing.AllocsPerRun(1, func() {
			h = NewHistogram()
			for _, v := range c.vs {
				h.Add(v)
			}
		})
		span := bucketOf(h.Max()) - bucketOf(h.Min()) + 1
		t.Logf("%s: %d slots for a %d-bucket span, %v allocations", c.name, len(h.counts), span, allocs)
		if limit := 2*span + 2*minSlack + 1; len(h.counts) > limit {
			t.Errorf("%s: %d slots for a %d-bucket span, want at most %d", c.name, len(h.counts), span, limit)
		}
		if allocs > 24 {
			t.Errorf("%s: %v allocations to record %d values over %d buckets, want at most 24", c.name, allocs, len(c.vs), span)
		}
	}
}
