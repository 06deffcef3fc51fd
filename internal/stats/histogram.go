// Package stats provides the measurement primitives shared by all PerfIso
// experiments: latency histograms with percentile queries, time-weighted
// utilization accounting, moving averages, and counters.
package stats

import (
	"fmt"
	"math"
	"sort"

	"perfiso/internal/sim"
)

// Histogram records positive values (typically latencies in nanoseconds)
// in logarithmic buckets with ~1% relative precision, like an HDR
// histogram. It supports millions of samples in O(1) memory.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    float64
	max    float64
	// growth is the per-bucket multiplicative step; it fixes the bucket
	// layout, so only histograms with equal growth can merge.
	growth    float64
	logGrowth float64
}

// bucketGrowth is the default per-bucket multiplicative step: 1%
// relative error.
const bucketGrowth = 1.01

// NewHistogram returns an empty histogram with the default ~1%
// relative precision.
func NewHistogram() *Histogram {
	return NewHistogramGrowth(bucketGrowth)
}

// NewHistogramGrowth returns an empty histogram whose buckets step by
// the given multiplicative factor (relative precision growth-1).
// Coarser layouts trade precision for memory. Growth must exceed 1.
func NewHistogramGrowth(growth float64) *Histogram {
	if !(growth > 1) {
		panic(fmt.Sprintf("stats: histogram growth %v, must be > 1", growth))
	}
	return &Histogram{
		min:       math.Inf(1),
		max:       math.Inf(-1),
		growth:    growth,
		logGrowth: math.Log(growth),
	}
}

func (h *Histogram) bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	return 1 + int(math.Log(v)/h.logGrowth)
}

func (h *Histogram) bucketValue(b int) float64 {
	if b == 0 {
		return 0
	}
	// Midpoint of the bucket in log space.
	return math.Exp((float64(b) - 0.5) * h.logGrowth)
}

// Add records one observation. Negative values are clamped to zero;
// they can only arise from floating-point noise in callers.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	b := h.bucketOf(v)
	if b >= len(h.counts) {
		// Grow geometrically: the old +16 step re-copied the whole
		// array every 16 new buckets, an O(n²) ramp over the ~2300
		// buckets a nanosecond-scale latency range spans. Trailing
		// zero buckets never affect totals, quantiles or merges, so
		// the layout (and every committed artifact) is unchanged.
		n := 2 * len(h.counts)
		if n < b+16 {
			n = b + 16
		}
		grown := make([]uint64, n)
		copy(grown, h.counts)
		h.counts = grown
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

// AddDuration records a sim.Duration observation.
func (h *Histogram) AddDuration(d sim.Duration) { h.Add(float64(d)) }

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean reports the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max report exact extremes (not bucketed).
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile reports the value at quantile q in [0,1], with ~1% relative
// error from bucketing. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
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
			v := h.bucketValue(b)
			// Clamp to the exact observed extremes so tiny sample
			// sets report sane numbers.
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

// P50, P95 and P99 are the percentiles the paper reports.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// QuantileDuration reports Quantile(q) as a sim.Duration.
func (h *Histogram) QuantileDuration(q float64) sim.Duration {
	return sim.Duration(h.Quantile(q))
}

// Merge adds all of other's observations into h. It errors when the
// bucket layouts differ — adding counts bucket-by-bucket across
// layouts would silently misplace every sample.
func (h *Histogram) Merge(other *Histogram) error {
	if other.growth != h.growth {
		return fmt.Errorf("stats: cannot merge histograms with bucket growth %v into %v", other.growth, h.growth)
	}
	if other.total == 0 {
		return nil
	}
	if len(other.counts) > len(h.counts) {
		grown := make([]uint64, len(other.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	return nil
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// LatencySummary is the standard per-experiment latency readout, in
// milliseconds, mirroring the y-axes of the paper's figures.
type LatencySummary struct {
	Count  uint64
	MeanMs float64
	P50Ms  float64
	P95Ms  float64
	P99Ms  float64
	MaxMs  float64
}

// Summary reads the histogram (of nanosecond observations) as milliseconds.
func (h *Histogram) Summary() LatencySummary {
	const ms = float64(sim.Millisecond)
	return LatencySummary{
		Count:  h.total,
		MeanMs: h.Mean() / ms,
		P50Ms:  h.P50() / ms,
		P95Ms:  h.P95() / ms,
		P99Ms:  h.P99() / ms,
		MaxMs:  h.Max() / ms,
	}
}

func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
		s.Count, s.MeanMs, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
}

// ExactPercentile computes an exact percentile over a small sample slice
// (nearest-rank); used by tests to validate the histogram approximation.
func ExactPercentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// WindowedLatency buckets latency samples into fixed time windows so
// experiments can report percentile series over time (the Fig. 10
// plots). The zero value is not usable; construct with NewWindowedLatency.
type WindowedLatency struct {
	window  sim.Duration
	buckets []*Histogram
}

// NewWindowedLatency creates a series with the given window width.
func NewWindowedLatency(window sim.Duration) *WindowedLatency {
	if window <= 0 {
		panic("stats: non-positive window")
	}
	return &WindowedLatency{window: window}
}

// Add records a sample observed at time t.
func (w *WindowedLatency) Add(t sim.Time, d sim.Duration) {
	idx := int(t / sim.Time(w.window))
	for len(w.buckets) <= idx {
		w.buckets = append(w.buckets, NewHistogram())
	}
	w.buckets[idx].AddDuration(d)
}

// Window returns the histogram of the i-th window (nil when empty or
// out of range).
func (w *WindowedLatency) Window(i int) *Histogram {
	if i < 0 || i >= len(w.buckets) {
		return nil
	}
	return w.buckets[i]
}
