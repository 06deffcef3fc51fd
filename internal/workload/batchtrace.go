package workload

import (
	"math"

	"perfiso/internal/sim"
)

// BatchTaskSpec is one task of a batch-secondary trace: the submit
// offset plus the task's resource demand. Exactly one of CPU/DiskOps
// is normally set — CPU-bound tasks burn CPU-seconds under blind
// isolation, disk-bound tasks stream synchronous 8 KB operations under
// the DWRR throttler — mirroring the two secondary flavors of §5.3.
type BatchTaskSpec struct {
	ID     int
	Submit sim.Time
	// CPU is the task's CPU-time demand (CPU-bound tasks).
	CPU sim.Duration
	// DiskOps is the task's synchronous 8 KB disk-op demand (disk-bound
	// tasks).
	DiskOps int
}

// BatchTraceConfig parameterizes batch-trace generation. Unlike the
// primary's Poisson query trace, batch submissions in production are
// bursty (jobs arrive as groups of tasks) and per-task demand is
// heavy-tailed — the regimes the synthetic parameter-sweep backlog
// cannot produce.
type BatchTraceConfig struct {
	// Tasks is the trace length.
	Tasks int
	// Rate is the mean task-submission rate in tasks per second.
	Rate float64
	// BurstMean is the mean number of tasks arriving together in one
	// submission burst (geometric burst sizes; <= 1 degenerates to
	// Poisson single-task arrivals). Burst gaps are stretched so the
	// long-run rate stays Rate.
	BurstMean float64
	// MeanCPU is the mean per-task CPU demand of CPU-bound tasks.
	MeanCPU sim.Duration
	// TailAlpha is the Pareto shape of the CPU-demand distribution;
	// values in (1, 2] give the heavy tail of production batch tasks
	// (mean exists, variance effectively does not). <= 1 (where the
	// Pareto mean diverges) or > 10 falls back to exponential demand.
	TailAlpha float64
	// DiskFraction is the probability a task is disk-bound instead of
	// CPU-bound.
	DiskFraction float64
	// MeanOps is the mean op demand of disk-bound tasks.
	MeanOps int
	// Seed makes the trace reproducible.
	Seed uint64
	// Start offsets the first submission.
	Start sim.Time
}

// maxCPUFactor bounds a single task's CPU demand at this multiple of
// the mean: the Pareto tail is the point, but a 10^6× outlier would
// turn a test-scale replay into a single never-finishing task.
const maxCPUFactor = 1000

// GenerateBatchTrace produces a batch-secondary trace: bursty task
// submissions at the configured mean rate with heavy-tailed (bounded
// Pareto) per-task CPU demand, and an optional disk-bound fraction.
func GenerateBatchTrace(cfg BatchTraceConfig) []BatchTaskSpec {
	if cfg.Tasks <= 0 {
		return nil
	}
	if cfg.Rate <= 0 {
		panic("workload: non-positive batch submission rate")
	}
	if cfg.MeanCPU <= 0 && cfg.DiskFraction < 1 {
		panic("workload: CPU-bound tasks with non-positive mean demand")
	}
	if cfg.DiskFraction > 0 && cfg.MeanOps <= 0 {
		panic("workload: disk-bound tasks with non-positive mean ops")
	}
	burst := cfg.BurstMean
	if burst < 1 {
		burst = 1
	}
	r := sim.NewRNG(cfg.Seed)
	// Bursts of mean size `burst` arriving every burst/Rate seconds keep
	// the long-run task rate at Rate.
	meanGap := sim.Duration(burst * float64(sim.Second) / cfg.Rate)
	out := make([]BatchTaskSpec, 0, cfg.Tasks)
	at := cfg.Start
	for len(out) < cfg.Tasks {
		at = at.Add(r.ExpDuration(meanGap))
		n := geometric(r, burst)
		for i := 0; i < n && len(out) < cfg.Tasks; i++ {
			t := BatchTaskSpec{ID: len(out), Submit: at}
			if cfg.DiskFraction > 0 && r.Float64() < cfg.DiskFraction {
				ops := int(r.Exp(float64(cfg.MeanOps)))
				if ops < 1 {
					ops = 1
				}
				t.DiskOps = ops
			} else {
				t.CPU = cpuDemand(r, cfg.MeanCPU, cfg.TailAlpha)
			}
			out = append(out, t)
		}
	}
	return out
}

// geometric draws a burst size >= 1 with the given mean.
func geometric(r *sim.RNG, mean float64) int {
	if mean <= 1 {
		return 1
	}
	// Geometric on {1, 2, ...} with success probability 1/mean.
	p := 1 / mean
	n := 1
	for r.Float64() >= p && n < 1<<16 {
		n++
	}
	return n
}

// cpuDemand draws one task's CPU demand: bounded Pareto with shape
// alpha scaled so the (unbounded) mean is mean, or exponential when
// alpha is out of range.
func cpuDemand(r *sim.RNG, mean sim.Duration, alpha float64) sim.Duration {
	if alpha <= 1 || alpha > 10 {
		d := r.ExpDuration(mean)
		if d < 1 {
			d = 1
		}
		return d
	}
	// Pareto(xm, alpha) has mean alpha·xm/(alpha-1); pick xm to hit mean.
	xm := float64(mean) * (alpha - 1) / alpha
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	x := xm * math.Pow(1/u, 1/alpha)
	if max := float64(mean) * maxCPUFactor; x > max {
		x = max
	}
	if x < 1 {
		x = 1
	}
	return sim.Duration(x)
}

// BatchStats summarizes a batch trace, as the harvest-trace-frontier
// table prints it.
type BatchStats struct {
	Tasks     int
	DiskTasks int
	Span      sim.Duration
	MeanRate  float64 // tasks per second over the span
	// TotalCPU / MaxCPU / MeanCPU summarize CPU-bound demand.
	TotalCPU sim.Duration
	MaxCPU   sim.Duration
	MeanCPU  sim.Duration
	// TotalOps / MaxOps summarize disk-bound demand.
	TotalOps int
	MaxOps   int
}

// BatchTraceStats computes summary statistics of a batch trace.
func BatchTraceStats(trace []BatchTaskSpec) BatchStats {
	st := BatchStats{Tasks: len(trace)}
	if len(trace) == 0 {
		return st
	}
	cpuTasks := 0
	for _, t := range trace {
		if t.DiskOps > 0 {
			st.DiskTasks++
			st.TotalOps += t.DiskOps
			if t.DiskOps > st.MaxOps {
				st.MaxOps = t.DiskOps
			}
			continue
		}
		cpuTasks++
		st.TotalCPU += t.CPU
		if t.CPU > st.MaxCPU {
			st.MaxCPU = t.CPU
		}
	}
	if cpuTasks > 0 {
		st.MeanCPU = st.TotalCPU / sim.Duration(cpuTasks)
	}
	st.Span = trace[len(trace)-1].Submit.Sub(trace[0].Submit)
	if st.Span > 0 {
		st.MeanRate = float64(len(trace)-1) / st.Span.Seconds()
	}
	return st
}
