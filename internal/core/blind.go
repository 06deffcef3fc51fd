package core

import (
	"perfiso/internal/cpumodel"
	"perfiso/internal/obs"
	"perfiso/internal/osmodel"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/stats"
)

// BlindIsolation is CPU blind isolation (§3.1): it polls the idle-core
// bitmask in a tight loop and adjusts the secondary job's affinity so
// the machine always keeps BufferCores idle for the primary.
//
// With I idle cores, B buffer cores and S cores currently allocated to
// the secondary (§3.1.2):
//
//	I < B  →  S shrinks by the full deficit B-I, immediately;
//	I > B  →  S grows, at most one core per GrowHoldoff.
//
// The asymmetry is deliberate: giving cores back to the primary is on
// the latency-critical path (the poll interval bounds the rescue time),
// while handing cores to the secondary is pure throughput and can be
// lazy. The policy is non-work-conserving — B cores are left idle on
// purpose — which is what lets the controller observe load changes
// before they hurt (§3.1, "non-work conserving scheduling").
type BlindIsolation struct {
	os  *osmodel.OS
	job *osmodel.Job

	buffer  int
	holdoff sim.Duration
	// cfgMax is the configured MaxSecondaryCores (0 = no explicit cap);
	// maxSec is the effective limit min(cfgMax, cores-buffer), kept in
	// sync with the buffer as it changes at runtime.
	cfgMax int
	maxSec int

	allocated int // S: cores currently granted to the secondary
	lastGrow  sim.Time
	enabled   bool
	stopped   bool

	// Harvest-capacity signal: how many cores beyond the buffer sit
	// idle, i.e. capacity a cluster scheduler could hand to batch work
	// without touching the safety margin. Updated every poll on the
	// simulation clock; the EWMA smooths over the primary's bursts.
	harvestInstant int
	harvestEWMA    float64
	harvestAlpha   float64

	// Shrinks and Grows count affinity updates by direction; the paper
	// separates cheap polling from on-demand updates (§4.1), so these
	// also measure how rarely updates happen relative to polls.
	Shrinks uint64
	Grows   uint64
	// Polls counts loop iterations.
	Polls uint64
	// AllocSeries samples S over time for Fig.10-style reporting; nil
	// unless enabled with RecordAllocation.
	AllocSeries *stats.TimeSeries

	sampleEvery uint64

	// trk observes grow/shrink/holdoff decisions; track caches
	// trk.Enabled() so the disabled path is one branch. strace
	// additionally records the decisions as sim-time instants when a
	// cell runs under -simtrace (nil otherwise).
	trk    obs.Tracker
	track  bool
	strace *simtrace.Tracer
}

// SetSimTracer attaches a sim-domain tracer recording buffer
// grow/shrink and holdoff decisions as instant events (nil detaches).
func (b *BlindIsolation) SetSimTracer(tr *simtrace.Tracer) { b.strace = tr }

// traceDecision emits one controller instant on the control track.
func (b *BlindIsolation) traceDecision(name string, cores int) {
	b.strace.Instant(b.os.Now(), simtrace.TrackControl, name, "controller",
		simtrace.Int("allocated", cores))
}

// NewBlindIsolation builds the isolator for a secondary job. It does not
// start polling; call Start.
func NewBlindIsolation(os *osmodel.OS, job *osmodel.Job, cfg Config) *BlindIsolation {
	alpha := cfg.HarvestSmoothing
	if alpha == 0 {
		alpha = defaultHarvestSmoothing
	}
	b := &BlindIsolation{
		os:           os,
		job:          job,
		buffer:       cfg.BufferCores,
		holdoff:      cfg.GrowHoldoff,
		cfgMax:       cfg.MaxSecondaryCores,
		harvestAlpha: alpha,
	}
	b.maxSec = b.secLimit(b.buffer)
	b.SetTracker(obs.Default())
	return b
}

// SetTracker replaces the isolator's tracker (nil restores the noop
// tracker). Trackers are pure observers and never alter decisions.
func (b *BlindIsolation) SetTracker(t obs.Tracker) {
	if t == nil {
		t = obs.NopTracker()
	}
	b.trk = t
	b.track = t.Enabled()
}

// secLimit is the effective secondary-core ceiling for a given buffer:
// cores-buffer, further capped by the configured MaxSecondaryCores.
func (b *BlindIsolation) secLimit(buffer int) int {
	limit := b.os.Cores() - buffer
	if limit < 0 {
		limit = 0
	}
	if b.cfgMax > 0 && b.cfgMax < limit {
		limit = b.cfgMax
	}
	return limit
}

// defaultHarvestSmoothing is the EWMA coefficient used when the config
// leaves HarvestSmoothing at zero. At the default 100 µs poll cadence
// it yields a ~5 ms time constant — long enough to look through MLA
// aggregation bursts, short enough to track real load shifts well
// within one scheduler tick.
const defaultHarvestSmoothing = 0.02

// Harvestable reports the instantaneous harvest capacity observed at
// the last poll: idle cores beyond the buffer (never negative).
func (b *BlindIsolation) Harvestable() int { return b.harvestInstant }

// SmoothedHarvestable reports the EWMA of Harvestable across polls —
// the signal cluster-level batch schedulers consume, robust to the
// primary's microsecond-scale bursts.
func (b *BlindIsolation) SmoothedHarvestable() float64 { return b.harvestEWMA }

// RecordAllocation enables sampling of the secondary allocation every n
// polls (for time-series plots).
func (b *BlindIsolation) RecordAllocation(everyPolls uint64) {
	b.AllocSeries = &stats.TimeSeries{}
	b.sampleEvery = everyPolls
}

// Allocated reports S, the secondary's current core grant.
func (b *BlindIsolation) Allocated() int { return b.allocated }

// Buffer reports B.
func (b *BlindIsolation) Buffer() int { return b.buffer }

// SetBuffer changes B at runtime (PerfIso accepts limit-altering
// commands while running, §4). The secondary limit is recomputed from
// the configured max — so lowering the buffer restores headroom the
// previous, larger buffer took away — and an over-budget grant is shed
// immediately rather than on the next unrelated shrink.
func (b *BlindIsolation) SetBuffer(cores int) {
	if cores < 0 {
		cores = 0
	}
	b.buffer = cores
	b.maxSec = b.secLimit(cores)
	// Shed now if the new limit is below the current grant. Growth into
	// newly available headroom stays lazy (next polls, holdoff-limited):
	// only the shrink direction is latency-critical. Under the kill
	// switch the job intentionally owns the whole machine, so nothing is
	// applied until Enable.
	if b.enabled && b.allocated > b.maxSec {
		b.apply(b.allocated)
	}
}

// Start begins the polling loop with the configured interval. The
// secondary starts from zero cores and earns them as idleness is
// observed, so a freshly-isolated machine is immediately safe.
func (b *BlindIsolation) Start(poll sim.Duration) {
	b.enabled = true
	b.stopped = false
	b.apply(0)
	b.os.Engine().Ticker(poll, func() bool {
		if b.stopped {
			return false
		}
		b.Poll()
		return true
	})
}

// Stop ends the polling loop permanently (service shutdown).
func (b *BlindIsolation) Stop() { b.stopped = true }

// Disable is the kill switch (§4.2): the secondary is released to the
// full machine and the loop idles until Enable. Production debugging
// uses this to rule PerfIso out as a cause in one step. The grant
// bookkeeping follows the affinity, so Allocated() and AllocSeries
// report the full machine — not a stale pre-kill-switch value — while
// isolation is off.
func (b *BlindIsolation) Disable() {
	b.enabled = false
	all := b.os.Cores()
	if all > b.allocated {
		b.Grows++
		if b.track {
			b.trk.BufferGrow(all)
		}
	} else if all < b.allocated {
		b.Shrinks++
		if b.track {
			b.trk.BufferShrink(all)
		}
	}
	b.allocated = all
	b.job.SetAffinity(cpumodel.AllCores(all))
}

// Enable re-engages isolation after a Disable, starting again from a
// zero grant.
func (b *BlindIsolation) Enable() {
	b.enabled = true
	b.apply(0)
}

// Enabled reports whether isolation is active.
func (b *BlindIsolation) Enabled() bool { return b.enabled }

// Poll performs one loop iteration: read the idle mask, compare against
// the buffer target, update the affinity only if needed (§4.1 separates
// polling from updating).
func (b *BlindIsolation) Poll() {
	b.Polls++
	idle := b.os.IdleCores()
	h := idle - b.buffer
	if h < 0 {
		h = 0
	}
	b.harvestInstant = h
	b.harvestEWMA += b.harvestAlpha * (float64(h) - b.harvestEWMA)
	if b.enabled {
		switch {
		case idle < b.buffer:
			// The primary has eaten into the buffer: shed the full
			// deficit at once. The poll interval is the rescue latency.
			b.apply(b.allocated - (b.buffer - idle))
		case idle > b.buffer:
			// Spare idleness beyond the buffer: hand one core over, rate
			// limited by the holdoff.
			now := b.os.Now()
			if b.allocated < b.maxSec && (b.lastGrow == 0 || now.Sub(b.lastGrow) >= b.holdoff) {
				b.apply(b.allocated + 1)
				b.lastGrow = now
			} else if b.allocated < b.maxSec {
				if b.track {
					b.trk.HoldoffDeferred()
				}
				if b.strace != nil {
					b.traceDecision("holdoff-deferred", b.allocated)
				}
			}
		}
	}
	// Sampling continues under the kill switch so the series shows the
	// full-machine grant instead of a gap with a stale final value.
	if b.AllocSeries != nil && b.sampleEvery > 0 && b.Polls%b.sampleEvery == 0 {
		b.AllocSeries.Add(b.os.Now(), float64(b.allocated))
	}
}

// apply clamps and installs a new secondary grant. The secondary is
// packed onto the highest-numbered cores so that the primary's ideal-
// core placement (spreading from low ids) meets it last.
func (b *BlindIsolation) apply(cores int) {
	if cores < 0 {
		cores = 0
	}
	if cores > b.maxSec {
		cores = b.maxSec
	}
	if cores == b.allocated && b.Polls > 0 {
		return
	}
	if cores < b.allocated {
		b.Shrinks++
		if b.track {
			b.trk.BufferShrink(cores)
		}
		if b.strace != nil {
			b.traceDecision("buffer-shrink", cores)
		}
	} else if cores > b.allocated {
		b.Grows++
		if b.track {
			b.trk.BufferGrow(cores)
		}
		if b.strace != nil {
			b.traceDecision("buffer-grow", cores)
		}
	}
	b.allocated = cores
	b.job.SetAffinity(cpumodel.TopCores(b.os.Cores(), cores))
}
