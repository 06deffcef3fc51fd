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
//
// Bucket 0 holds values below 1 and bucket b ≥ 1 holds values in
// [1.01^(b-1), 1.01^b). The histogram stores counts only for the span
// between the lowest and highest bucket it has seen, plus the room
// grow leaves at either end: counts[i] is bucket lo+i. That pays
// because nanosecond latencies sit far above bucket 0 (1 µs is bucket
// 695, 1 ms bucket 1,389): query and disk latencies never reach the
// low ~1,100 buckets, so a histogram of ~3.5 ms query latencies keeps
// a few hundred slots where an array from bucket 0 up would keep about
// 3,000. A histogram that records zeros, such as a NIC's queueing
// delay, keeps its full span from bucket 0.
type Histogram struct {
	counts []uint64
	lo     int
	total  uint64
	sum    float64
	min    float64
	max    float64
}

// logGrowth is the log of the per-bucket multiplicative step, 1.01: 1%
// relative error.
var logGrowth = math.Log(1.01)

// minSlack is the room, in buckets, that a histogram's first bucket
// array leaves on either side of its first sample, and the least room
// a growth adds at the end it extends.
const minSlack = 16

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	return 1 + int(math.Log(v)/logGrowth)
}

func bucketValue(b int) float64 {
	if b == 0 {
		return 0
	}
	// Midpoint of the bucket in log space.
	return math.Exp((float64(b) - 0.5) * logGrowth)
}

// Add records one observation. Negative values are clamped to zero;
// they can only arise from floating-point noise in callers.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	i := bucketOf(v) - h.lo
	if uint(i) >= uint(len(h.counts)) {
		i = h.grow(h.lo + i)
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// grow widens the bucket array to take bucket b and returns b's index
// in it. The end it extends gains room for half the occupied span
// again (at least minSlack buckets), so an array is copied O(log s)
// times over a span of s buckets and recording stays amortized O(1).
// The other end keeps its room, which an earlier growth sized by a
// smaller span, so the array never holds more than about twice the
// span of the values recorded since the histogram was made.
func (h *Histogram) grow(b int) int {
	occLo, occHi := b, b
	if h.total > 0 {
		occLo = min(occLo, bucketOf(h.min))
		occHi = max(occHi, bucketOf(h.max))
	}
	slack := max((occHi-occLo+1)/2, minSlack)
	lo, hi := h.lo, h.lo+len(h.counts)
	switch {
	case len(h.counts) == 0:
		lo, hi = b-minSlack, b+minSlack+1
	case b < lo:
		lo = occLo - slack
	default:
		hi = occHi + slack + 1
	}
	lo = max(lo, 0)
	counts := make([]uint64, hi-lo)
	if len(h.counts) > 0 {
		copy(counts[h.lo-lo:], h.counts)
	}
	h.counts, h.lo = counts, lo
	return b - lo
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
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			v := bucketValue(h.lo + i)
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
// experiments can report a P99 series over time (the Fig. 10 plots).
// Samples arrive in time order, so it keeps one histogram, for the
// open window: the latest window a sample has landed in. A sample in a
// later window closes the open one, keeping only its count and P99,
// the values its readers take, and Resets the histogram for the new
// window. A sample in an earlier window than the open one panics. The
// zero value is not usable; construct with NewWindowedLatency.
type WindowedLatency struct {
	window sim.Duration
	open   *Histogram
	// closed holds one entry per window before the open one, whose
	// index is len(closed).
	closed []windowStat
}

// windowStat is what a closed window keeps.
type windowStat struct {
	count uint64
	p99   float64
}

// NewWindowedLatency creates a series with the given window width.
func NewWindowedLatency(window sim.Duration) *WindowedLatency {
	if window <= 0 {
		panic("stats: non-positive window")
	}
	return &WindowedLatency{window: window, open: NewHistogram()}
}

// Add records a sample observed at time t.
func (w *WindowedLatency) Add(t sim.Time, d sim.Duration) {
	if i := int(t / sim.Time(w.window)); i != len(w.closed) {
		w.advance(i)
	}
	w.open.AddDuration(d)
}

// advance closes the open window, and every window after it before
// window i, which becomes the open window.
func (w *WindowedLatency) advance(i int) {
	if i < len(w.closed) {
		panic(fmt.Sprintf("stats: latency sample in window %d, after window %d opened", i, len(w.closed)))
	}
	w.closed = append(w.closed, windowStat{w.open.Count(), w.open.P99()})
	for len(w.closed) < i {
		w.closed = append(w.closed, windowStat{})
	}
	w.open.Reset()
}

// Window reports the sample count and P99 of the i-th window; the open
// window reads as it stands. Both are 0 for a window with no samples
// and for one out of range.
func (w *WindowedLatency) Window(i int) (count uint64, p99 float64) {
	switch {
	case i < 0 || i > len(w.closed):
		return 0, 0
	case i == len(w.closed):
		return w.open.Count(), w.open.P99()
	}
	return w.closed[i].count, w.closed[i].p99
}
