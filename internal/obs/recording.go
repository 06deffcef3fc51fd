package obs

import "sync/atomic"

// Recording is the run-wide set of counters behind `-stats` and the
// benchmark's per-layer counts: the sim-domain counters of every
// finished cell (AddCell). Every update is a lock-free atomic, so all
// cell goroutines in a process can share one instance. Every method
// does nothing on a nil *Recording: holders keep a plain pointer that
// stays nil unless counting was asked for.
type Recording struct {
	eventsPushed atomic.Uint64
	eventsPopped atomic.Uint64
	maxHeapDepth atomic.Int64
	simNs        atomic.Int64

	bufferGrows      atomic.Uint64
	bufferShrinks    atomic.Uint64
	holdoffDeferrals atomic.Uint64
	evictions        atomic.Uint64

	placements   atomic.Uint64
	preemptions  atomic.Uint64
	taskRequeues atomic.Uint64
}

// NewRecording returns a zeroed recording.
func NewRecording() *Recording { return &Recording{} }

var defaultRecording atomic.Pointer[Recording]

// Default returns the process-wide recording, nil unless SetDefault
// installed one. Finished simulation cells fold their counters into
// it (see the package docs).
func Default() *Recording { return defaultRecording.Load() }

// SetDefault installs the process-wide recording; nil removes it.
// Install it before the cells whose counts it should receive start.
func SetDefault(r *Recording) { defaultRecording.Store(r) }

// CellCounts is one finished simulation cell's sim-domain counters,
// read from the counters its engine, governors and harvest scheduler
// keep themselves.
type CellCounts struct {
	// EventsPushed and EventsPopped count entries scheduled on and
	// taken off the engine's queue and lanes: dispatched, or discarded
	// because they were cancelled.
	EventsPushed, EventsPopped uint64
	// MaxHeapDepth is the event queue's high-water mark. Events
	// waiting in fixed-delay lanes are not in the queue.
	MaxHeapDepth int
	// SimNs is the virtual time the cell's engine advanced.
	SimNs int64

	// BufferGrows, BufferShrinks and HoldoffDeferrals are
	// blind-isolation decisions; Evictions counts memory-guard kills.
	BufferGrows, BufferShrinks, HoldoffDeferrals, Evictions uint64

	// Placements, Preemptions and Requeues are harvest-scheduler task
	// transitions: placed, shed on a buffer squeeze, and requeued
	// after a machine failure.
	Placements, Preemptions, Requeues uint64
}

// AddCell folds one cell's counters in. The heap depth is a maximum
// over cells; every other counter is a sum.
func (r *Recording) AddCell(c CellCounts) {
	if r == nil {
		return
	}
	r.eventsPushed.Add(c.EventsPushed)
	r.eventsPopped.Add(c.EventsPopped)
	storeMax(&r.maxHeapDepth, int64(c.MaxHeapDepth))
	r.simNs.Add(c.SimNs)
	r.bufferGrows.Add(c.BufferGrows)
	r.bufferShrinks.Add(c.BufferShrinks)
	r.holdoffDeferrals.Add(c.HoldoffDeferrals)
	r.evictions.Add(c.Evictions)
	r.placements.Add(c.Placements)
	r.preemptions.Add(c.Preemptions)
	r.taskRequeues.Add(c.Requeues)
}

// storeMax raises m to v if v is larger.
func storeMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is the JSON projection of a recording, folded into
// timing.json's "stats" section by `perfiso-repro run -stats`.
type Snapshot struct {
	SimEventsPushed uint64  `json:"sim_events_pushed"`
	SimEventsPopped uint64  `json:"sim_events_popped"`
	SimMaxHeapDepth int64   `json:"sim_max_heap_depth"`
	SimSeconds      float64 `json:"sim_seconds"`
	// RNGDraws is filled by the caller from sim.RNGDraws (RNG draw
	// accounting is gated inside the sim package, not counted per cell
	// — see sim.SetRNGAccounting).
	RNGDraws uint64 `json:"rng_draws,omitempty"`

	CoreBufferGrows      uint64 `json:"core_buffer_grows"`
	CoreBufferShrinks    uint64 `json:"core_buffer_shrinks"`
	CoreHoldoffDeferrals uint64 `json:"core_holdoff_deferrals"`
	CoreEvictions        uint64 `json:"core_evictions"`

	HarvestPlacements  uint64 `json:"harvest_placements"`
	HarvestPreemptions uint64 `json:"harvest_preemptions"`
	HarvestRequeues    uint64 `json:"harvest_requeues"`
}

// Snapshot reads the counters, all zero for a nil recording. It is
// safe to call while counting continues; the values are each
// individually consistent.
func (r *Recording) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return Snapshot{
		SimEventsPushed:      r.eventsPushed.Load(),
		SimEventsPopped:      r.eventsPopped.Load(),
		SimMaxHeapDepth:      r.maxHeapDepth.Load(),
		SimSeconds:           float64(r.simNs.Load()) / 1e9,
		CoreBufferGrows:      r.bufferGrows.Load(),
		CoreBufferShrinks:    r.bufferShrinks.Load(),
		CoreHoldoffDeferrals: r.holdoffDeferrals.Load(),
		CoreEvictions:        r.evictions.Load(),
		HarvestPlacements:    r.placements.Load(),
		HarvestPreemptions:   r.preemptions.Load(),
		HarvestRequeues:      r.taskRequeues.Load(),
	}
}

// Metrics renders the snapshot as Prometheus metrics.
func (s Snapshot) Metrics() []Metric {
	return []Metric{
		{Name: "perfiso_sim_events_pushed_total", Type: "counter", Help: "Events scheduled on sim engines.", Value: float64(s.SimEventsPushed)},
		{Name: "perfiso_sim_events_popped_total", Type: "counter", Help: "Events dispatched by sim engines.", Value: float64(s.SimEventsPopped)},
		{Name: "perfiso_sim_heap_depth_max", Type: "gauge", Help: "Deepest event heap observed.", Value: float64(s.SimMaxHeapDepth)},
		{Name: "perfiso_sim_time_seconds_total", Type: "counter", Help: "Virtual seconds advanced.", Value: s.SimSeconds},
		{Name: "perfiso_rng_draws_total", Type: "counter", Help: "RNG draws (when sim RNG accounting is on).", Value: float64(s.RNGDraws)},
		{Name: "perfiso_core_buffer_grows_total", Type: "counter", Help: "Blind-isolation grow decisions.", Value: float64(s.CoreBufferGrows)},
		{Name: "perfiso_core_buffer_shrinks_total", Type: "counter", Help: "Blind-isolation shrink decisions.", Value: float64(s.CoreBufferShrinks)},
		{Name: "perfiso_core_holdoff_deferrals_total", Type: "counter", Help: "Grow attempts deferred by the holdoff.", Value: float64(s.CoreHoldoffDeferrals)},
		{Name: "perfiso_core_evictions_total", Type: "counter", Help: "Memory-guard job kills.", Value: float64(s.CoreEvictions)},
		{Name: "perfiso_harvest_placements_total", Type: "counter", Help: "Harvest tasks placed.", Value: float64(s.HarvestPlacements)},
		{Name: "perfiso_harvest_preemptions_total", Type: "counter", Help: "Harvest tasks preempted on buffer squeeze.", Value: float64(s.HarvestPreemptions)},
		{Name: "perfiso_harvest_requeues_total", Type: "counter", Help: "Harvest tasks requeued after machine failure.", Value: float64(s.HarvestRequeues)},
	}
}
