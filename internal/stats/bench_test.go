package stats

import (
	"testing"

	"perfiso/internal/sim"
)

// BenchmarkHistogramAdd measures the per-query recording cost — it sits
// on the completion path of every simulated query. "latency" records
// into one histogram; "windows" records a cell's worth of latencies
// (24,000, log-normal with a 3.5 ms median) into a fresh 40-window
// series the way the series sampler does, so its allocations are the
// open window's bucket array and the closed windows' stats, amortized
// per sample.
func BenchmarkHistogramAdd(b *testing.B) {
	b.Run("latency", func(b *testing.B) {
		h := NewHistogram()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.AddDuration(sim.Duration(i%20+1) * sim.Millisecond)
		}
	})
	b.Run("windows", func(b *testing.B) {
		const samples, windows = 24000, 40
		r := sim.NewRNG(7)
		lat := make([]sim.Duration, samples)
		for i := range lat {
			lat[i] = r.LogNormalDuration(3500*sim.Microsecond, 0.4)
		}
		const gap = 250 * sim.Microsecond // 4,000 QPS
		window := samples * gap / windows
		var w *WindowedLatency
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % samples
			if j == 0 {
				w = NewWindowedLatency(window)
			}
			w.Add(sim.Time(j)*sim.Time(gap), lat[j])
		}
	})
}

// BenchmarkHistogramQuantile measures tail extraction over a populated
// histogram.
func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	r := sim.NewRNG(7)
	for i := 0; i < 100000; i++ {
		h.Add(r.LogNormal(4e6, 0.5))
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += h.P99()
	}
	_ = acc
}

// BenchmarkAccountingAccumulate measures the per-accrual cost charged on
// every scheduling event.
func BenchmarkAccountingAccumulate(b *testing.B) {
	a := NewCPUAccounting(48, 0)
	for i := 0; i < b.N; i++ {
		a.Accumulate(ClassPrimary, sim.Microsecond)
	}
}
