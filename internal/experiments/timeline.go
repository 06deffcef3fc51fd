package experiments

import (
	"fmt"
	"math"
	"strings"

	"perfiso/internal/core"
	"perfiso/internal/indexserve"
	"perfiso/internal/isolation"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// TimelineConfig parameterizes the DES timeline experiment: one fully
// simulated machine under a time-varying load curve colocated with the
// CPU bully under blind isolation — the discrete-event analogue of the
// Fig. 10 fluid model, used to cross-validate it.
type TimelineConfig struct {
	// Duration is the simulated span.
	Duration sim.Duration
	// Window is the reporting granularity.
	Window sim.Duration
	// PeakQPS scales the diurnal curve (same curve as the fluid model:
	// ≈[0.45, 1.0]·peak over the span).
	PeakQPS float64
	// BufferCores configures blind isolation; 0 disables colocation
	// (standalone timeline).
	BufferCores int
	// Seed drives the trace.
	Seed uint64
}

// DefaultTimelineConfig runs one simulated minute at the single-box
// peak rate — enough windows to see the controller track the curve.
func DefaultTimelineConfig() TimelineConfig {
	return TimelineConfig{
		Duration:    60 * sim.Second,
		Window:      1 * sim.Second,
		PeakQPS:     4000,
		BufferCores: 8,
		Seed:        2017,
	}
}

// PaperTimelineConfig runs five simulated minutes — long enough for
// the diurnal curve to traverse its full swing at one-second windows.
func PaperTimelineConfig() TimelineConfig {
	cfg := DefaultTimelineConfig()
	cfg.Duration = 5 * sim.Minute
	return cfg
}

// TimelineSample is one reporting window.
type TimelineSample struct {
	At         sim.Time
	QPS        float64
	P99ms      float64
	CPUUsedPct float64
	SecPct     float64
}

// TimelineResult is the full series plus aggregates.
type TimelineResult struct {
	Samples []TimelineSample
	// AvgCPUUsedPct and MaxP99ms summarize the run like the fluid
	// model's ProductionResult, for direct comparison.
	AvgCPUUsedPct float64
	AvgP99ms      float64
	MaxP99ms      float64
}

// Diurnal is the shared load curve: x∈[0,1) position in the span.
func Diurnal(x float64) float64 {
	return 0.725 + 0.275*math.Sin(2*math.Pi*(x-0.25))
}

// RunTimeline executes the DES timeline.
func RunTimeline(cfg TimelineConfig) TimelineResult {
	if cfg.Duration <= 0 || cfg.Window <= 0 || cfg.PeakQPS <= 0 {
		panic("experiments: invalid timeline config")
	}
	eng := sim.NewEngine()
	ncfg := node.DefaultConfig()
	ncfg.Seed = cfg.Seed
	n := node.New(eng, ncfg)

	var gov *core.BlindIsolation
	if cfg.BufferCores > 0 {
		job := n.OS.CreateJob("timeline-secondary")
		bully := workload.NewCPUBully(n.CPU, "bully", n.CPU.Cores())
		bully.Start()
		job.Assign(bully.Proc)
		pol := &isolation.Blind{BufferCores: cfg.BufferCores}
		if err := pol.Install(n.OS, job); err != nil {
			panic(err)
		}
		gov = pol.Governor()
	}

	span := cfg.Duration.Seconds()
	trace := workload.GenerateCurvedTrace(cfg.Duration,
		func(sec float64) float64 { return cfg.PeakQPS * Diurnal(sec/span) }, cfg.Seed)

	lat := stats.NewWindowedLatency(cfg.Window)
	arrivals := make([]int, int(cfg.Duration/cfg.Window)+1)
	n.Server.OnResponse = func(r indexserve.Response) {
		lat.Add(eng.Now(), r.Latency)
	}
	for _, q := range trace {
		idx := int(q.Arrival / sim.Time(cfg.Window))
		if idx < len(arrivals) {
			arrivals[idx]++
		}
	}

	// Per-window utilization sampling: snapshot the accounting at each
	// window boundary and diff.
	windows := int(cfg.Duration / cfg.Window)
	type cpuSnap struct{ used, sec, capacity float64 }
	snaps := make([]cpuSnap, 0, windows+1)
	snap := func() {
		acct := n.CPU.Accounting()
		nowT := eng.Now()
		used := acct.Class(stats.ClassPrimary) + acct.Class(stats.ClassSecondary) + acct.Class(stats.ClassOS)
		snaps = append(snaps, cpuSnap{
			used:     float64(used),
			sec:      float64(acct.Class(stats.ClassSecondary)),
			capacity: float64(acct.Capacity(nowT)),
		})
	}
	snap()
	for w := 1; w <= windows; w++ {
		eng.At(sim.Time(w)*sim.Time(cfg.Window), snap)
	}

	client := workload.NewClient(eng, func(q workload.QuerySpec) { n.Server.Submit(q) })
	client.Replay(trace)
	eng.Run(sim.Time(cfg.Duration))
	foldCell(eng, gov, nil)

	var out TimelineResult
	var usedSum, p99Sum float64
	count := 0
	for w := 0; w < windows && w+1 < len(snaps); w++ {
		h := lat.Window(w)
		p99 := 0.0
		if h != nil && h.Count() > 0 {
			p99 = h.P99() / float64(sim.Millisecond)
		}
		dUsed := snaps[w+1].used - snaps[w].used
		dSec := snaps[w+1].sec - snaps[w].sec
		dCap := snaps[w+1].capacity - snaps[w].capacity
		usedPct, secPct := 0.0, 0.0
		if dCap > 0 {
			usedPct = 100 * dUsed / dCap
			secPct = 100 * dSec / dCap
		}
		out.Samples = append(out.Samples, TimelineSample{
			At:         sim.Time(w) * sim.Time(cfg.Window),
			QPS:        float64(arrivals[w]) / cfg.Window.Seconds(),
			P99ms:      p99,
			CPUUsedPct: usedPct,
			SecPct:     secPct,
		})
		usedSum += usedPct
		p99Sum += p99
		if p99 > out.MaxP99ms {
			out.MaxP99ms = p99
		}
		count++
	}
	if count > 0 {
		out.AvgCPUUsedPct = usedSum / float64(count)
		out.AvgP99ms = p99Sum / float64(count)
	}
	return out
}

// timelineTableEvery is the sampling stride of the timeline table, in
// reporting windows.
const timelineTableEvery = 5

// Table renders the timeline series.
func (r TimelineResult) Table() string {
	var b strings.Builder
	b.WriteString("timeline — single-machine DES under the diurnal curve\n")
	fmt.Fprintf(&b, "%8s  %8s  %8s  %8s  %8s\n", "t", "qps", "p99ms", "cpu%", "sec%")
	for i, s := range r.Samples {
		if i%timelineTableEvery != 0 {
			continue
		}
		fmt.Fprintf(&b, "%8.0fs  %8.0f  %8.2f  %8.1f  %8.1f\n",
			s.At.Seconds(), s.QPS, s.P99ms, s.CPUUsedPct, s.SecPct)
	}
	fmt.Fprintf(&b, "\ntimeline: avg CPU %.1f%%, P99 avg %.1f ms / max %.1f ms over %d windows\n",
		r.AvgCPUUsedPct, r.AvgP99ms, r.MaxP99ms, len(r.Samples))
	return b.String()
}
