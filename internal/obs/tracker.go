package obs

import "sync/atomic"

// Tracker observes hot-path events across the four instrumented
// layers. Implementations must be safe for concurrent use and must
// never influence the behavior of the code that calls them (see the
// package docs for the full contract).
type Tracker interface {
	// Enabled reports whether this tracker records anything. Hot paths
	// cache it so the disabled case costs one predictable branch.
	Enabled() bool

	// EventPushed reports one event scheduled on a sim engine; depth is
	// the event-heap size after the push. Events waiting in the
	// engine's fixed-delay lanes (sim.Delay) are not in the heap and
	// do not count toward depth, though pushing one is reported.
	EventPushed(depth int)
	// EventPopped reports one event taken off a sim engine's queue,
	// heap or lane: dispatched, or discarded because it was cancelled.
	EventPopped()
	// SimAdvanced reports virtual nanoseconds advanced by one
	// Run/RunAll call.
	SimAdvanced(ns int64)

	// BufferGrow and BufferShrink report blind-isolation affinity
	// updates; cores is the new secondary grant.
	BufferGrow(cores int)
	BufferShrink(cores int)
	// HoldoffDeferred reports a grow opportunity suppressed by the grow
	// holdoff window.
	HoldoffDeferred()
	// Eviction reports a memory-guard job kill.
	Eviction()

	// Placement, Preemption and TaskRequeue report harvest-scheduler
	// task transitions (placed, shed on buffer squeeze, requeued after
	// machine failure).
	Placement()
	Preemption()
	TaskRequeue()

	// Claim, Steal, LeaseExpired and StaleUpload report dispatch
	// coordinator decisions; Upload reports one accepted result upload
	// and its transport latency in seconds (worker side).
	Claim()
	Steal()
	LeaseExpired()
	StaleUpload()
	Upload(seconds float64)
}

// nopTracker is the zero-cost default: every method is empty.
type nopTracker struct{}

// NopTracker returns the shared no-op tracker.
func NopTracker() Tracker { return nopTracker{} }

func (nopTracker) Enabled() bool     { return false }
func (nopTracker) EventPushed(int)   {}
func (nopTracker) EventPopped()      {}
func (nopTracker) SimAdvanced(int64) {}
func (nopTracker) BufferGrow(int)    {}
func (nopTracker) BufferShrink(int)  {}
func (nopTracker) HoldoffDeferred()  {}
func (nopTracker) Eviction()         {}
func (nopTracker) Placement()        {}
func (nopTracker) Preemption()       {}
func (nopTracker) TaskRequeue()      {}
func (nopTracker) Claim()            {}
func (nopTracker) Steal()            {}
func (nopTracker) LeaseExpired()     {}
func (nopTracker) StaleUpload()      {}
func (nopTracker) Upload(float64)    {}

var _ Tracker = nopTracker{}

// defaultTracker is the process-wide tracker new components adopt at
// construction time. It starts as the noop tracker. The box keeps the
// concrete type stored in the atomic.Value consistent.
type trackerBox struct{ t Tracker }

var defaultTracker atomic.Value

func init() { defaultTracker.Store(trackerBox{nopTracker{}}) }

// Default returns the process-wide tracker.
func Default() Tracker { return defaultTracker.Load().(trackerBox).t }

// SetDefault installs the process-wide tracker (nil restores the noop
// tracker). Components read Default at construction, so install the
// recording tracker before building engines, controllers or
// coordinators.
func SetDefault(t Tracker) {
	if t == nil {
		t = nopTracker{}
	}
	defaultTracker.Store(trackerBox{t})
}
