package core

import (
	"fmt"
	"sort"

	"perfiso/internal/osmodel"
	"perfiso/internal/sim"
)

// IOThrottler implements PerfIso's Deficit-Weighted-Round-Robin I/O
// throttling (§4.1). The OS only reports per-device statistics, so the
// throttler samples per-process completed IOPS itself, maintains a
// moving average, and computes each process's weighted demand
//
//	D_i(t) = Σ_{t'=t-∆..t}  w_i(t')·curr(t') / Σ_j w_j(t')
//
// and its deficit against the guaranteed lower limit lim_i
//
//	Def_i(t) = (curr_i(t) − min(lim_i, D_i(t))) / min(lim_i, D_i(t)).
//
// Processes running ahead of their entitlement (positive deficit) have
// their I/O priority demoted; processes behind it are promoted. Static
// byte/op rate caps (e.g. the cluster experiments' 20 MB/s replication
// and 60 MB/s HDFS-client limits, §5.3) are applied once at start.
type IOThrottler struct {
	os  *osmodel.OS
	cfg IOVolumeConfig

	procs   []*throttledProc
	stopped bool

	// Adjustments counts priority changes applied.
	Adjustments uint64
	// Samples counts poll iterations.
	Samples uint64
}

type throttledProc struct {
	cfg IOProcConfig

	lastOps   uint64 // cumulative op count at the previous sample
	rateHist  sim.FIFO[float64]
	demHist   sim.FIFO[float64]
	priority  int
	deficit   float64
	currIOPS  float64
	demand    float64
	sampled   bool
	histLimit int
}

// Priority bounds: volumes serve strictly by priority, so the range is
// kept narrow to avoid starving demoted processes forever.
const (
	minIOPriority  = 0
	baseIOPriority = 4
	maxIOPriority  = 7
)

// NewIOThrottler builds a DWRR throttler over one volume. It panics on
// an unknown volume: a misnamed volume would silently throttle nothing.
func NewIOThrottler(os *osmodel.OS, cfg IOVolumeConfig) *IOThrottler {
	if _, ok := os.Volumes[cfg.Volume]; !ok {
		panic(fmt.Sprintf("core: IO throttler for unknown volume %q", cfg.Volume))
	}
	t := &IOThrottler{os: os, cfg: cfg}
	for _, pc := range cfg.Procs {
		t.procs = append(t.procs, &throttledProc{
			cfg:       pc,
			priority:  baseIOPriority,
			histLimit: cfg.Window,
		})
	}
	return t
}

// Start applies the static caps and begins sampling.
func (t *IOThrottler) Start() {
	for _, p := range t.procs {
		if p.cfg.BytesPerSec > 0 || p.cfg.OpsPerSec > 0 {
			if err := t.os.SetIORate(t.cfg.Volume, p.cfg.Proc, p.cfg.BytesPerSec, p.cfg.OpsPerSec); err != nil {
				panic(err)
			}
		}
		if err := t.os.SetIOPriority(t.cfg.Volume, p.cfg.Proc, p.priority); err != nil {
			panic(err)
		}
	}
	t.os.Engine().Ticker(t.cfg.PollInterval, func() bool {
		if t.stopped {
			return false
		}
		t.Sample()
		return true
	})
}

// Stop ends sampling permanently.
func (t *IOThrottler) Stop() { t.stopped = true }

// Volume reports the throttled volume name.
func (t *IOThrottler) Volume() string { return t.cfg.Volume }

// Deficit reports the latest computed deficit for proc (0 if unknown).
func (t *IOThrottler) Deficit(proc string) float64 {
	if p := t.find(proc); p != nil {
		return p.deficit
	}
	return 0
}

// Priority reports the current assigned priority for proc.
func (t *IOThrottler) Priority(proc string) int {
	if p := t.find(proc); p != nil {
		return p.priority
	}
	return baseIOPriority
}

// Demand reports the latest weighted demand D_i for proc.
func (t *IOThrottler) Demand(proc string) float64 {
	if p := t.find(proc); p != nil {
		return p.demand
	}
	return 0
}

func (t *IOThrottler) find(proc string) *throttledProc {
	for _, p := range t.procs {
		if p.cfg.Proc == proc {
			return p
		}
	}
	return nil
}

// Sample performs one DWRR iteration: measure per-process IOPS over the
// elapsed interval, update demands and deficits, adjust priorities.
func (t *IOThrottler) Sample() {
	t.Samples++
	secs := t.cfg.PollInterval.Seconds()

	// Measure curr_i for every process and curr for the drive.
	var curr float64
	var totalWeight float64
	for _, p := range t.procs {
		st, ok := t.os.VolumeStats(t.cfg.Volume, p.cfg.Proc)
		if !ok {
			continue
		}
		ops := st.ReadOps + st.WriteOps
		if !p.sampled {
			p.lastOps = ops
			p.sampled = true
			continue
		}
		p.currIOPS = float64(ops-p.lastOps) / secs
		p.lastOps = ops
		curr += p.currIOPS
		totalWeight += p.cfg.Weight
	}
	if totalWeight == 0 {
		return
	}

	for _, p := range t.procs {
		if !p.sampled {
			continue
		}
		// Weighted share of this sample, then the ∆-windowed sum.
		share := p.cfg.Weight * curr / totalWeight
		p.demand = slide(&p.demHist, share, p.histLimit)
		smoothed := slide(&p.rateHist, p.currIOPS, p.histLimit)

		entitlement := p.demand
		if p.cfg.MinIOPS > 0 && p.cfg.MinIOPS < entitlement {
			entitlement = p.cfg.MinIOPS
		}
		switch {
		case smoothed <= 0 || entitlement <= 0:
			// No measurable traffic or no entitlement to compare
			// against: neutral deficit, so the priority drifts back to
			// base instead of sticking at its last extreme.
			p.deficit = 0
		default:
			p.deficit = (smoothed - entitlement) / entitlement
		}
		t.adjust(p)
	}
}

// adjust maps the deficit to a priority move: far over entitlement →
// demote, under entitlement → promote, near it → drift back to base.
func (t *IOThrottler) adjust(p *throttledProc) {
	target := p.priority
	switch {
	case p.deficit > 0.25:
		target = p.priority - 1
	case p.deficit < -0.25:
		target = p.priority + 1
	default:
		if p.priority < baseIOPriority {
			target = p.priority + 1
		} else if p.priority > baseIOPriority {
			target = p.priority - 1
		}
	}
	if target < minIOPriority {
		target = minIOPriority
	}
	if target > maxIOPriority {
		target = maxIOPriority
	}
	if target == p.priority {
		return
	}
	p.priority = target
	if err := t.os.SetIOPriority(t.cfg.Volume, p.cfg.Proc, target); err != nil {
		panic(err)
	}
	t.Adjustments++
}

// slide appends x to the window w, drops its oldest sample once w
// holds more than limit, and returns the mean of what w holds, summed
// oldest first.
func slide(w *sim.FIFO[float64], x float64, limit int) float64 {
	w.Push(x)
	if w.Len() > limit {
		w.Pop()
	}
	if w.Len() == 0 {
		return 0
	}
	var s float64
	for i := 0; i < w.Len(); i++ {
		s += w.At(i)
	}
	return s / float64(w.Len())
}

// Snapshot summarizes the throttler state for debugging dumps, sorted by
// process name.
func (t *IOThrottler) Snapshot() []IOSnapshot {
	out := make([]IOSnapshot, 0, len(t.procs))
	for _, p := range t.procs {
		out = append(out, IOSnapshot{
			Proc:     p.cfg.Proc,
			IOPS:     p.currIOPS,
			Demand:   p.demand,
			Deficit:  p.deficit,
			Priority: p.priority,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}

// IOSnapshot is one process's throttling state.
type IOSnapshot struct {
	Proc     string
	IOPS     float64
	Demand   float64
	Deficit  float64
	Priority int
}
