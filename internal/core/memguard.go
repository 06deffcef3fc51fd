package core

import (
	"perfiso/internal/obs"
	"perfiso/internal/osmodel"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
)

// MemoryGuard enforces §3.2's memory policy: the primary's fixed
// working set is sacrosanct, so the secondary job's footprint is capped
// and, when system memory runs very low, secondary processes are
// killed outright. The guard never throttles — memory cannot be
// released gradually by an external controller, so kill is the only
// safe actuator.
type MemoryGuard struct {
	os  *osmodel.OS
	job *osmodel.Job

	// limit caps the job's summed footprint (0 = none).
	limit int64
	// reserve is the free-memory floor below which the job dies
	// (0 = none).
	reserve int64

	stopped bool

	// Kills counts guard-initiated job kills (at most 1 per job, but a
	// counter keeps the accounting uniform with the other governors).
	Kills uint64
	// Polls counts loop iterations.
	Polls uint64
	// OnKill, when set, observes guard kills (Autopilot hooks in to
	// restart or reschedule the batch work elsewhere).
	OnKill func(reason string)

	trk    obs.Tracker
	strace *simtrace.Tracer
}

// SetSimTracer attaches a sim-domain tracer recording guard kills as
// instant events (nil detaches).
func (g *MemoryGuard) SetSimTracer(tr *simtrace.Tracer) { g.strace = tr }

// NewMemoryGuard builds a guard for the secondary job.
func NewMemoryGuard(os *osmodel.OS, job *osmodel.Job, cfg Config) *MemoryGuard {
	return &MemoryGuard{
		os:      os,
		job:     job,
		limit:   cfg.SecondaryMemoryLimit,
		reserve: cfg.SystemMemoryReserve,
		trk:     obs.Default(),
	}
}

// SetTracker replaces the guard's tracker (nil restores the noop
// tracker).
func (g *MemoryGuard) SetTracker(t obs.Tracker) {
	if t == nil {
		t = obs.NopTracker()
	}
	g.trk = t
}

// Start begins polling. A guard with neither limit nor reserve is
// inert and schedules nothing.
func (g *MemoryGuard) Start(poll sim.Duration) {
	if g.limit == 0 && g.reserve == 0 {
		return
	}
	g.job.SetMemoryLimit(g.limit)
	g.os.Engine().Ticker(poll, func() bool {
		if g.stopped {
			return false
		}
		g.Poll()
		return true
	})
}

// Stop ends polling permanently.
func (g *MemoryGuard) Stop() { g.stopped = true }

// SetLimit alters the job cap at runtime.
func (g *MemoryGuard) SetLimit(bytes int64) {
	g.limit = bytes
	g.job.SetMemoryLimit(bytes)
}

// Poll performs one guard iteration.
func (g *MemoryGuard) Poll() {
	g.Polls++
	if g.job.Killed() {
		return
	}
	if g.limit > 0 && g.job.Memory() > g.limit {
		g.kill("job over memory limit")
		return
	}
	if g.reserve > 0 && g.os.Memory != nil && g.os.Memory.Free() < g.reserve {
		g.kill("system memory low")
	}
}

func (g *MemoryGuard) kill(reason string) {
	g.job.Kill()
	g.Kills++
	if g.trk.Enabled() {
		g.trk.Eviction()
	}
	if g.strace != nil {
		g.strace.Instant(g.os.Now(), simtrace.TrackControl, "memory-evict", "controller",
			simtrace.String("reason", reason))
	}
	if g.OnKill != nil {
		g.OnKill(reason)
	}
}
