package cpumodel

import (
	"cmp"
	"fmt"
	"slices"

	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/stats"
)

// ThreadState tracks a thread through its lifecycle. It is one byte so
// that Thread packs it beside its other small fields.
type ThreadState uint8

const (
	// StateReady means queued on a core, waiting for CPU.
	StateReady ThreadState = iota
	// StateRunning means currently executing on a core.
	StateRunning
	// StateParked means held off-CPU by a cycle-budget freeze or an
	// empty effective affinity.
	StateParked
	// StateDone means the burst completed (or the thread was killed).
	StateDone
)

func (s ThreadState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateParked:
		return "parked"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Forever is a burst length long enough to never complete within any
// experiment: used by always-runnable bully threads.
const Forever = sim.Duration(1) << 58

// Thread is a single CPU burst of work owned by a process. Latency-
// sensitive services spawn one thread per unit of parallel work; bullies
// spawn Forever threads.
//
// A finished thread is reclaimed in one of three ways:
//   - its owner hands it back with Machine.Release once it is Done, and
//     must not use it again (IndexServe's query records do this);
//   - it was started with Machine.SpawnDetached, which returns no handle,
//     and the machine releases it itself when it completes or is killed
//     (background bursts and MLA aggregations);
//   - its owner keeps it and never releases it, leaving the struct to the
//     garbage collector (bully workers, harvest task threads).
//
// A released struct is reused by a later spawn only once it is Done and
// no longer listed in its process's threads.
//
// The small fields share the struct's last two words, which keeps it at
// 112 bytes, exactly one of Go's size classes (TestThreadSizeClass).
type Thread struct {
	ID        int
	Proc      *Process
	Affinity  CPUSet // thread-level mask; intersected with the process mask
	Remaining sim.Duration
	// OnDone fires when the burst completes (not when killed).
	OnDone func()

	readyAt sim.Time // when the thread last became ready (for FIFO pulls)

	// Forensic accumulators: how long the thread has spent running and
	// waiting, with ready waits classified by blame at enqueue time.
	// Pure observers — never read by a scheduling decision — so they
	// cannot perturb the simulation; always on, priced by
	// BenchmarkStatsOverhead's ≤2% budget.
	fxRun     sim.Duration
	fxQueue   sim.Duration // ready behind primary/OS threads
	fxHarvest sim.Duration // ready behind batch threads on eligible cores
	fxEvict   sim.Duration // ready while a delayed eviction was pending
	fxPark    sim.Duration // parked (freeze or empty affinity)
	parkedAt  sim.Time

	// Recycling state (see Machine.Release). gen counts incarnations of
	// the struct, so a delayed eviction armed for an earlier one can
	// tell; listed means Proc.threads still holds the thread, live or
	// as a tombstone; released means the owner handed it back, or, for
	// a detached thread, that it finished.
	gen uint32
	// Core indices fit in int16: New allows at most 64 cores.
	ideal    int16 // preferred core for placement
	core     int16 // core currently running or queued on (-1 otherwise)
	State    ThreadState
	waitKind uint8
	listed   bool
	released bool
	detached bool
}

// Ready-wait blame classes, decided when the wait begins.
const (
	waitQueue uint8 = iota
	waitHarvest
	waitEvict
)

// ForensicTimes returns the thread's accumulated scheduling-state
// forensics: time spent running, ready behind primary/OS work, ready
// behind harvested batch work, ready while a delayed batch eviction
// was pending, and parked. In-flight intervals are charged on the
// transition that ends them (dispatch, remove, preempt, cancel), so
// after Cancel or completion the partition covers spawn-to-end
// exactly.
func (t *Thread) ForensicTimes() (run, queue, harvest, evict, parked sim.Duration) {
	return t.fxRun, t.fxQueue, t.fxHarvest, t.fxEvict, t.fxPark
}

// eff returns the thread's effective affinity.
func (t *Thread) eff() CPUSet { return t.Affinity & t.Proc.affinity }

// Process groups threads for accounting and control, standing in for an
// OS process placed in a Job Object.
type Process struct {
	Name  string
	Class stats.Class

	m        *Machine
	affinity CPUSet
	// threads holds the process's threads in ascending ID order (IDs
	// are allocated monotonically, so append preserves the order every
	// scheduling sweep relies on). Completed threads linger as
	// StateDone tombstones and are compacted in batches: removal is
	// O(1) amortized where the old map+sort("thread-map") layout paid
	// an allocation and an O(n log n) sort on every affinity sweep.
	// Compaction alternates between two buffers, threads and spare.
	threads []*Thread
	spare   []*Thread
	live    int          // threads not yet Done (tombstones excluded)
	queued  int          // run-queue entries (this process's share of queuedCount)
	cpuTime sim.Duration // total CPU consumed (progress metric)

	// Windowed cycle budget (CPU rate control). capFrac <= 0 disables.
	capFrac     float64
	capWindow   sim.Duration
	windowUsed  sim.Duration
	frozen      bool
	parked      []*Thread
	parkedSpare []*Thread // unparkAll alternates parked with this buffer
	throttleOn  bool
	wakeCounter uint64 // diagnostic: freeze/unfreeze cycles
}

// Affinity returns the process affinity mask.
func (p *Process) Affinity() CPUSet { return p.affinity }

// CPUTime returns the total CPU time consumed by the process, accrued to
// the machine's current time.
func (p *Process) CPUTime() sim.Duration {
	p.m.AccrueAll()
	return p.cpuTime
}

// LiveThreads reports how many threads are not Done.
func (p *Process) LiveThreads() int { return p.live }

// addThread records a freshly spawned thread. Spawn allocates IDs
// monotonically, so appending keeps p.threads in ID order.
func (p *Process) addThread(t *Thread) {
	p.threads = append(p.threads, t)
	t.listed = true
	p.live++
}

// dropThread retires a thread that has just entered StateDone. The
// entry stays behind as a tombstone until enough accumulate, then one
// pass copies the survivors into the spare buffer — never in place, so
// a scheduling sweep ranging over the old header mid-drop still sees a
// stable snapshot. The old storage becomes the spare, overwritten only
// by the next compaction, so compacting allocates nothing once both
// buffers have grown. Dropping a tombstone is what lets a released
// thread be reused.
func (p *Process) dropThread() {
	p.live--
	if len(p.threads) >= 32 && p.live*2 < len(p.threads) {
		kept := p.spare[:0]
		for _, t := range p.threads {
			if t.State != StateDone {
				kept = append(kept, t)
				continue
			}
			p.m.unlist(t)
		}
		p.spare = p.threads[:0]
		p.threads = kept
	}
}

// unlist records that t, a Done thread, has left its process's thread
// list; if its owner already released it, it becomes reusable now.
func (m *Machine) unlist(t *Thread) {
	t.listed = false
	if t.released {
		m.free = append(m.free, t)
	}
}

// unpark removes t from the parked list, keeping the others' order.
func (p *Process) unpark(t *Thread) {
	for i, x := range p.parked {
		if x == t {
			p.parked = append(p.parked[:i], p.parked[i+1:]...)
			return
		}
	}
}

// Frozen reports whether the process is currently frozen by its cycle
// budget.
func (p *Process) Frozen() bool { return p.frozen }

// core is one logical CPU.
type core struct {
	id         int
	running    *Thread
	queue      []*Thread
	sliceStart sim.Time // when the current thread was dispatched
	runStart   sim.Time // last accounting accrual point
	idleStart  sim.Time // when the core last went idle
	epoch      uint64   // invalidates stale slice events

	// sliceEv/sliceTimer track the armed slice event so preemption can
	// cancel it; see preempt.
	sliceEv    *sliceEvent
	sliceTimer sim.Timer
}

// sliceEvent is a pooled slice-expiry record. Its fn field is bound to
// fire exactly once, so arming a slice costs no allocation: the record
// cycles between the machine's pool and the engine, and fire releases
// it back to the pool before dispatching (the handlers may arm the next
// slice, which can legally reuse this very record).
type sliceEvent struct {
	m         *Machine
	c         *core
	t         *Thread
	epoch     uint64
	completes bool
	fn        func()
}

func (ev *sliceEvent) fire() {
	m, c, t, epoch, completes := ev.m, ev.c, ev.t, ev.epoch, ev.completes
	ev.c, ev.t = nil, nil
	m.slicePool = append(m.slicePool, ev)
	if c.epoch != epoch || c.running != t {
		return // stale: the thread was evicted or killed
	}
	if completes {
		m.completeSlice(c)
	} else {
		m.expireQuantum(c)
	}
}

func (m *Machine) getSliceEvent() *sliceEvent {
	if n := len(m.slicePool); n > 0 {
		ev := m.slicePool[n-1]
		m.slicePool = m.slicePool[:n-1]
		return ev
	}
	ev := &sliceEvent{m: m}
	ev.fn = ev.fire
	return ev
}

// Config holds the scheduler's tunables. Defaults model a Windows
// Server-class machine (§5.2).
type Config struct {
	// Cores is the number of logical cores (48 on the paper's servers).
	Cores int
	// Quantum is the server scheduling quantum. Windows Server uses
	// long fixed quanta (~190 ms at default tick settings); threads at
	// equal priority are not preempted before expiry, which is exactly
	// why an unrestricted CPU bully is so damaging (Fig. 4). The
	// default is calibrated slightly above the OS figure so the
	// no-isolation drop rate lands in the paper's 11-32% band.
	Quantum sim.Duration
	// ThrottleCheck is the granularity at which windowed cycle budgets
	// are enforced.
	ThrottleCheck sim.Duration
	// EvictionLatency delays the eviction of a running thread after an
	// affinity change excludes its core, modeling dispatcher
	// propagation on a real OS. Zero (the default) evicts in the same
	// event — the idealization the calibrated experiments use; the
	// eviction-latency ablation sweeps this to show how the required
	// buffer size grows with rescue latency.
	EvictionLatency sim.Duration
	// DispatchOverhead is charged (as OS time) per context switch.
	DispatchOverhead sim.Duration
}

// DefaultConfig mirrors the evaluation hardware.
func DefaultConfig() Config {
	return Config{
		Cores:            48,
		Quantum:          300 * sim.Millisecond,
		ThrottleCheck:    500 * sim.Microsecond,
		DispatchOverhead: 2 * sim.Microsecond,
	}
}

// Machine is a simulated multicore server.
type Machine struct {
	eng  *sim.Engine
	cfg  Config
	rng  *sim.RNG
	core []*core

	idleMask    CPUSet
	acct        *stats.CPUAccounting
	procs       []*Process
	nextThread  int
	queuedCount int // total threads sitting in run queues
	slicePool   []*sliceEvent
	// free holds released threads that no machine structure references
	// any more; Spawn reuses them (see Release).
	free []*Thread
	// scratch collects the threads SetAffinity displaces and freeze
	// parks, and the copies CheckInvariants sorts, so none of them
	// allocates once it has grown.
	scratch []*Thread
	// quantum is the engine lane quantum-expiry slices are armed on:
	// every one fires exactly Config.Quantum after it was armed.
	quantum *sim.Delay

	// pendingEvictions counts delayed evictions scheduled by evictLater
	// that have not fired yet; ready waits beginning while it is
	// non-zero blame the eviction stall.
	pendingEvictions int
	trace            *simtrace.Tracer

	dispatchOverheadTotal sim.Duration

	// ContextSwitches counts dispatches, for diagnostics.
	ContextSwitches uint64
}

// New creates a machine driven by eng.
func New(eng *sim.Engine, rng *sim.RNG, cfg Config) *Machine {
	if cfg.Cores <= 0 || cfg.Cores > 64 {
		panic(fmt.Sprintf("cpumodel: invalid core count %d", cfg.Cores))
	}
	if cfg.Quantum <= 0 {
		panic("cpumodel: non-positive quantum")
	}
	m := &Machine{eng: eng, cfg: cfg, rng: rng, quantum: eng.NewDelay(cfg.Quantum)}
	m.core = make([]*core, cfg.Cores)
	for i := range m.core {
		m.core[i] = &core{id: i, idleStart: eng.Now()}
	}
	m.idleMask = AllCores(cfg.Cores)
	m.acct = stats.NewCPUAccounting(cfg.Cores, eng.Now())
	return m
}

// Engine returns the driving event engine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// SetSimTracer attaches a sim-domain tracer capturing per-core
// execution slices (nil detaches). Each core becomes one trace track.
// With no tracer attached the hot path pays a single nil check per
// scheduling event.
func (m *Machine) SetSimTracer(tr *simtrace.Tracer) {
	m.trace = tr
	if tr != nil {
		for _, c := range m.core {
			tr.NameTrack(c.id, fmt.Sprintf("core %d", c.id))
		}
	}
}

// traceSlice emits the execution slice ending now on core c.
func (m *Machine) traceSlice(c *core, t *Thread, now sim.Time) {
	if d := now.Sub(c.sliceStart); d > 0 {
		m.trace.Slice(c.sliceStart, d, c.id, t.Proc.Name, "cpu",
			simtrace.Int("tid", t.ID))
	}
}

// Cores reports the logical core count.
func (m *Machine) Cores() int { return m.cfg.Cores }

// Quantum reports the scheduling quantum.
func (m *Machine) Quantum() sim.Duration { return m.cfg.Quantum }

// NewProcess registers a process with full affinity.
func (m *Machine) NewProcess(name string, class stats.Class) *Process {
	p := &Process{
		Name:     name,
		Class:    class,
		m:        m,
		affinity: AllCores(m.cfg.Cores),
	}
	m.procs = append(m.procs, p)
	return p
}

// IdleMask returns the current idle-core bitmask: the low-latency,
// low-overhead "system call" of §3.1.1.
func (m *Machine) IdleMask() CPUSet { return m.idleMask }

// IdleCount returns the number of idle cores.
func (m *Machine) IdleCount() int { return m.idleMask.Count() }

// QueuedThreads reports how many ready threads are waiting in run queues.
func (m *Machine) QueuedThreads() int { return m.queuedCount }

// Accounting exposes per-class CPU accounting, accrued to now.
func (m *Machine) Accounting() *stats.CPUAccounting {
	m.AccrueAll()
	return m.acct
}

// Breakdown reports the utilization breakdown at the machine's current
// time.
func (m *Machine) Breakdown() stats.Breakdown {
	m.AccrueAll()
	return m.acct.Breakdown(m.eng.Now())
}

// ResetAccounting discards utilization history and restarts accounting
// at the current time; experiments call it at the end of their warmup
// phase so reported shares cover only the measured window.
func (m *Machine) ResetAccounting() {
	m.AccrueAll()
	m.acct = stats.NewCPUAccounting(m.cfg.Cores, m.eng.Now())
}

// AccrueAll charges all in-flight run and idle intervals up to now, so
// samples taken between scheduling events are exact.
func (m *Machine) AccrueAll() {
	now := m.eng.Now()
	for _, c := range m.core {
		if c.running != nil {
			m.accrueRun(c, now)
		} else {
			m.accrueIdle(c, now)
		}
	}
}

func (m *Machine) accrueRun(c *core, now sim.Time) {
	d := now.Sub(c.runStart)
	if d <= 0 {
		return
	}
	p := c.running.Proc
	m.acct.Accumulate(p.Class, d)
	p.cpuTime += d
	c.running.fxRun += d
	if p.capFrac > 0 {
		p.windowUsed += d
	}
	c.runStart = now
}

func (m *Machine) accrueIdle(c *core, now sim.Time) {
	d := now.Sub(c.idleStart)
	if d <= 0 {
		return
	}
	m.acct.Accumulate(stats.ClassIdle, d)
	c.idleStart = now
}

// Spawn creates a ready thread for p with the given burst length and
// thread affinity (use AllCores for no thread-level restriction). onDone
// may be nil.
func (m *Machine) Spawn(p *Process, burst sim.Duration, aff CPUSet, onDone func()) *Thread {
	return m.spawn(p, burst, aff, onDone, false)
}

// SpawnDetached starts a fire-and-forget burst: it schedules exactly as
// Spawn does, but returns no handle, and the machine releases the
// thread itself when it completes (after reading OnDone) or is killed.
// Loads that never look at their threads again use it, so their bursts
// draw from and refill the free list that Release feeds.
func (m *Machine) SpawnDetached(p *Process, burst sim.Duration, aff CPUSet, onDone func()) {
	m.spawn(p, burst, aff, onDone, true)
}

func (m *Machine) spawn(p *Process, burst sim.Duration, aff CPUSet, onDone func(), detached bool) *Thread {
	if burst <= 0 {
		panic("cpumodel: non-positive burst")
	}
	m.nextThread++
	t := m.newThread()
	// Zero the recycled struct in place and then set its fields:
	// assigning a composite literal builds it on the stack and copies
	// all of it over the struct.
	gen := t.gen + 1
	*t = Thread{}
	t.ID = m.nextThread
	t.Proc = p
	t.Affinity = aff
	t.Remaining = burst
	t.State = StateParked
	t.OnDone = onDone
	t.ideal = int16(m.nextThread % m.cfg.Cores)
	t.core = -1
	t.parkedAt = m.eng.Now()
	t.gen = gen
	t.detached = detached
	p.addThread(t)
	m.makeReady(t)
	return t
}

// newThread returns a released thread for reuse, or a fresh one.
func (m *Machine) newThread() *Thread {
	if n := len(m.free); n > 0 {
		t := m.free[n-1]
		m.free = m.free[:n-1]
		return t
	}
	return new(Thread)
}

// Release hands a finished thread back for reuse by a later Spawn.
// t must be Done — completed, cancelled or killed — and released at
// most once; Release panics otherwise. After Release the caller must
// not touch t: Spawn may return the same pointer as a new thread.
// Detached threads are released by the machine (see SpawnDetached).
//
// Reuse waits until no machine structure refers to t: a thread still
// listed as a tombstone in its process's thread list becomes reusable
// when the list is compacted. Cancel takes a parked thread off the
// parked list, and a delayed eviction armed for t checks its
// incarnation before acting, so neither can reach a later one.
func (m *Machine) Release(t *Thread) {
	if t.Proc.m != m {
		panic("cpumodel: release of another machine's thread")
	}
	if t.State != StateDone {
		panic(fmt.Sprintf("cpumodel: release of %v thread %d", t.State, t.ID))
	}
	if t.released {
		panic(fmt.Sprintf("cpumodel: thread %d released twice", t.ID))
	}
	t.released = true
	t.OnDone = nil
	if !t.listed {
		m.free = append(m.free, t)
	}
}

// makeReady places a thread: an idle core in its effective affinity if
// one exists (ideal core first), else the least-loaded allowed run queue.
func (m *Machine) makeReady(t *Thread) {
	if t.State == StateDone {
		return
	}
	now := m.eng.Now()
	if t.State == StateParked {
		t.fxPark += now.Sub(t.parkedAt)
	}
	t.readyAt = now
	if t.Proc.frozen {
		m.park(t)
		return
	}
	eff := t.eff()
	if eff.IsEmpty() {
		m.park(t)
		return
	}
	idle := eff & m.idleMask
	if !idle.IsEmpty() {
		target := idle.Lowest()
		if idle.Has(int(t.ideal)) {
			target = int(t.ideal)
		}
		m.dispatch(m.core[target], t)
		return
	}
	// No idle core available: enqueue on the shortest allowed queue.
	// The same sweep notes whether any eligible core is running
	// batch-class work, which decides the forensic blame for the wait
	// that starts here.
	best := -1
	bestLen := int(^uint(0) >> 1)
	sawBatch := false
	eff.ForEach(func(i int) {
		ci := m.core[i]
		if r := ci.running; r != nil && !r.Proc.boosted() {
			sawBatch = true
		}
		if l := len(ci.queue); l < bestLen {
			best, bestLen = i, l
		}
	})
	c := m.core[best]
	t.State = StateReady
	t.core = int16(best)
	t.waitKind = waitQueue
	if t.Proc.boosted() {
		if m.pendingEvictions > 0 {
			t.waitKind = waitEvict
		} else if sawBatch {
			t.waitKind = waitHarvest
		}
	}
	// Wake boost: primary-class threads queue ahead of batch-class
	// threads (FIFO within each band), mirroring the dynamic-priority
	// boost Windows grants threads waking from a wait. This is what
	// keeps an unrestricted CPU bully from starving the service
	// entirely — the paper's no-isolation case shows heavy-but-partial
	// drops, not a total collapse.
	pos := len(c.queue)
	if t.Proc.boosted() {
		for i, q := range c.queue {
			if !q.Proc.boosted() {
				pos = i
				break
			}
		}
	}
	c.queue = append(c.queue, nil)
	copy(c.queue[pos+1:], c.queue[pos:])
	c.queue[pos] = t
	m.queuedCount++
	t.Proc.queued++
}

// boosted reports whether the process's threads receive the wake-time
// priority boost (latency-sensitive and OS classes do; batch does not).
func (p *Process) boosted() bool {
	return p.Class == stats.ClassPrimary || p.Class == stats.ClassOS
}

func (m *Machine) park(t *Thread) {
	t.State = StateParked
	t.core = -1
	t.parkedAt = m.eng.Now()
	t.Proc.parked = append(t.Proc.parked, t)
}

// accrueWait charges the ready wait that ends now to the blame bucket
// chosen when the wait began, and restarts the wait clock.
func (m *Machine) accrueWait(t *Thread, now sim.Time) {
	d := now.Sub(t.readyAt)
	if d <= 0 {
		return
	}
	switch t.waitKind {
	case waitHarvest:
		t.fxHarvest += d
	case waitEvict:
		t.fxEvict += d
	default:
		t.fxQueue += d
	}
	t.readyAt = now
}

// classifyWait picks the blame bucket for a ready wait beginning now:
// primary/OS threads waiting while a delayed batch eviction is
// pending blame the eviction stall; waiting while batch threads
// occupy eligible cores blames the harvest; everything else is plain
// queueing.
func (m *Machine) classifyWait(t *Thread) uint8 {
	if !t.Proc.boosted() {
		return waitQueue
	}
	if m.pendingEvictions > 0 {
		return waitEvict
	}
	sawBatch := false
	t.eff().ForEach(func(i int) {
		if r := m.core[i].running; r != nil && !r.Proc.boosted() {
			sawBatch = true
		}
	})
	if sawBatch {
		return waitHarvest
	}
	return waitQueue
}

// dispatch starts t on idle core c and schedules its slice event.
func (m *Machine) dispatch(c *core, t *Thread) {
	if c.running != nil {
		panic("cpumodel: dispatch to busy core")
	}
	now := m.eng.Now()
	m.accrueIdle(c, now)
	m.accrueWait(t, now)
	m.idleMask = m.idleMask.Without(c.id)
	// Dispatch overhead is tracked separately rather than accumulated
	// into the class accounting, so that Σ(class time) == capacity holds
	// exactly; OS overhead visible in breakdowns comes from the
	// housekeeping workload instead.
	m.dispatchOverheadTotal += m.cfg.DispatchOverhead
	c.running = t
	c.sliceStart = now
	c.runStart = now
	c.epoch++
	t.State = StateRunning
	t.core = int16(c.id)
	m.ContextSwitches++
	m.scheduleSlice(c)
}

// scheduleSlice arms the next slice event for the core's running thread:
// burst completion or quantum expiry, whichever comes first.
func (m *Machine) scheduleSlice(c *core) {
	t := c.running
	slice := m.cfg.Quantum
	completes := false
	if t.Remaining <= slice {
		slice = t.Remaining
		completes = true
	}
	ev := m.getSliceEvent()
	ev.c, ev.t, ev.epoch, ev.completes = c, t, c.epoch, completes
	c.sliceEv = ev
	if completes {
		c.sliceTimer = m.eng.AfterTimer(slice, ev.fn)
	} else {
		c.sliceTimer = m.quantum.After(ev.fn)
	}
}

// completeSlice retires the running thread's burst.
func (m *Machine) completeSlice(c *core) {
	now := m.eng.Now()
	t := c.running
	m.accrueRun(c, now)
	if m.trace != nil {
		m.traceSlice(c, t, now)
	}
	t.Remaining = 0
	t.State = StateDone
	t.core = -1
	// Read OnDone first: a detached thread is released here, and the
	// compaction dropThread may run can put it on the free list, where
	// OnDone's own spawns may reuse it.
	onDone := t.OnDone
	if t.detached {
		t.released = true
		t.OnDone = nil
	}
	t.Proc.dropThread()
	c.running = nil
	c.epoch++
	m.pickNext(c)
	if onDone != nil {
		onDone()
	}
}

// expireQuantum round-robins the core's queue at quantum expiry.
func (m *Machine) expireQuantum(c *core) {
	now := m.eng.Now()
	t := c.running
	m.accrueRun(c, now)
	if m.trace != nil {
		m.traceSlice(c, t, now)
	}
	t.Remaining -= now.Sub(c.sliceStart)
	if t.Remaining <= 0 {
		// Defensive: should have been a completion.
		t.Remaining = 1
	}
	if len(c.queue) == 0 && t.eff().Has(c.id) {
		// Nothing waiting and still allowed here: keep running, fresh
		// quantum. (A thread awaiting delayed eviction is migrated at
		// expiry instead.)
		c.sliceStart = now
		c.epoch++
		m.scheduleSlice(c)
		return
	}
	// Requeue at the tail, run the head.
	c.running = nil
	c.epoch++
	t.State = StateReady
	t.readyAt = now
	t.waitKind = m.classifyWait(t)
	c.queue = append(c.queue, t)
	m.queuedCount++
	t.Proc.queued++
	m.pickNext(c)
}

// pickNext runs the core's queue head; with an empty queue it pulls the
// oldest eligible queued thread from any other core (immediate idle
// balancing), else the core goes idle.
func (m *Machine) pickNext(c *core) {
	for len(c.queue) > 0 {
		// Shift the queue down rather than slicing its head off, so it
		// stays at the front of its storage and makeReady's append never
		// has to reallocate it. A queue reaches 250 threads in overload
		// cells, yet the shifts take under 2% of those cells' CPU.
		t := c.queue[0]
		n := copy(c.queue, c.queue[1:])
		c.queue[n] = nil
		c.queue = c.queue[:n]
		m.queuedCount--
		t.Proc.queued--
		if t.State != StateReady {
			continue // killed or migrated while queued
		}
		if !t.eff().Has(c.id) {
			// Affinity changed while queued; re-place elsewhere.
			t.core = -1
			m.makeReady(t)
			continue
		}
		m.idleMask = m.idleMask.With(c.id) // dispatch expects an idle core
		c.idleStart = m.eng.Now()
		m.dispatch(c, t)
		return
	}
	// Own queue empty: steal the oldest eligible waiter machine-wide.
	if m.queuedCount > 0 {
		if t := m.oldestEligible(c.id); t != nil {
			m.remove(t)
			m.idleMask = m.idleMask.With(c.id)
			c.idleStart = m.eng.Now()
			m.dispatch(c, t)
			return
		}
	}
	m.idleMask = m.idleMask.With(c.id)
	c.idleStart = m.eng.Now()
}

// oldestEligible finds the queued thread with the earliest readyAt whose
// effective affinity admits the given core.
//
// A thread's effective affinity is a subset of its process's mask, so
// when no process with queued threads admits the core the scan cannot
// succeed and is skipped. That is the common case under blind
// isolation: a buffer core going idle finds only the secondary's
// threads queued, and the secondary's mask excludes the buffer.
func (m *Machine) oldestEligible(coreID int) *Thread {
	if !m.mayAdmit(coreID) {
		return nil
	}
	var best *Thread
	for _, c := range m.core {
		for _, t := range c.queue {
			if t.State != StateReady || !t.eff().Has(coreID) {
				continue
			}
			if best == nil || t.readyAt < best.readyAt {
				best = t
			}
		}
	}
	return best
}

// mayAdmit reports whether some process with queued threads has coreID
// in its affinity mask — a necessary condition for any queued thread to
// be eligible there.
func (m *Machine) mayAdmit(coreID int) bool {
	for _, p := range m.procs {
		if p.queued > 0 && p.affinity.Has(coreID) {
			return true
		}
	}
	return false
}

// remove takes a ready thread out of its queue.
func (m *Machine) remove(t *Thread) {
	if t.State != StateReady || t.core < 0 {
		panic("cpumodel: remove of non-queued thread")
	}
	c := m.core[t.core]
	q := c.queue
	idx := -1
	for i, x := range q {
		if x == t {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("cpumodel: queued thread not found in its queue")
	}
	c.queue = append(q[:idx], q[idx+1:]...)
	m.queuedCount--
	t.Proc.queued--
	m.accrueWait(t, m.eng.Now())
	t.core = -1
}

// preempt takes a running thread off its core, charging its partial
// slice. The core then schedules other work.
func (m *Machine) preempt(t *Thread) {
	c := m.core[t.core]
	if c.running != t {
		panic("cpumodel: preempt of non-running thread")
	}
	now := m.eng.Now()
	m.accrueRun(c, now)
	if m.trace != nil {
		m.traceSlice(c, t, now)
	}
	t.Remaining -= now.Sub(c.sliceStart)
	if t.Remaining <= 0 {
		t.Remaining = 1
	}
	c.running = nil
	c.epoch++
	t.core = -1
	// The armed slice event is now stale; cancel it so it never runs
	// (it would have been an epoch-check no-op) and reclaim its record.
	// Cancellation alone does not shrink the event queue — the entry
	// stays until it surfaces — which is why quantum expiries, the
	// slices preemption usually revokes, wait in their own fixed-delay
	// lane instead of the heap.
	if m.eng.Cancel(c.sliceTimer) {
		ev := c.sliceEv
		ev.c, ev.t = nil, nil
		m.slicePool = append(m.slicePool, ev)
	}
	c.sliceEv = nil
	m.pickNext(c)
}

// SetAffinity updates a process's affinity mask. Running threads outside
// the new mask are evicted — immediately with the default configuration
// (the property blind isolation relies on for its sub-millisecond rescue
// path), or after Config.EvictionLatency when the dispatcher-propagation
// delay is being modeled. Parked threads whose affinity becomes
// non-empty are re-placed.
func (m *Machine) SetAffinity(p *Process, mask CPUSet) {
	p.affinity = mask
	displaced := m.scratch[:0]
	// p.threads is kept in ID order (tombstones skipped), so the sweep
	// visits threads exactly as the old sorted snapshot did — thread
	// handling order reaches scheduling decisions, and any other order
	// would break bit-identical reproduction.
	for _, t := range p.threads {
		switch t.State {
		case StateRunning:
			if !t.eff().Has(int(t.core)) {
				if m.cfg.EvictionLatency > 0 {
					m.evictLater(t)
				} else {
					m.preempt(t)
					displaced = append(displaced, t)
				}
			}
		case StateReady:
			if !t.eff().Has(int(t.core)) {
				m.remove(t)
				displaced = append(displaced, t)
			}
		}
	}
	for _, t := range displaced {
		m.makeReady(t)
	}
	clear(displaced)
	m.scratch = displaced[:0]
	if !mask.IsEmpty() && !p.frozen {
		m.unparkAll(p)
	}
	m.pullIdle()
}

// evictLater schedules a delayed eviction of a running thread whose
// affinity no longer admits its core — modeling the time a real
// dispatcher takes to notice an affinity change and reschedule the
// thread. The check re-validates at fire time: the thread may have
// finished, been killed, or had its affinity restored meanwhile.
//
// The thread may also have been released and reused meanwhile; the
// incarnation check keeps the eviction from reaching the new thread.
func (m *Machine) evictLater(t *Thread) {
	coreAt, gen := t.core, t.gen
	m.pendingEvictions++
	m.eng.After(m.cfg.EvictionLatency, func() {
		m.pendingEvictions--
		if t.gen != gen || t.State != StateRunning || t.core != coreAt || t.eff().Has(int(t.core)) {
			return
		}
		m.preempt(t)
		m.makeReady(t)
	})
}

// pullIdle lets every idle core grab eligible queued work; called after
// affinity widens, since queued threads otherwise wait for the next
// scheduling event on their own core.
func (m *Machine) pullIdle() {
	for m.queuedCount > 0 {
		pulled := false
		idle := m.idleMask
		for mask := idle; !mask.IsEmpty(); {
			id := mask.Lowest()
			mask = mask.Without(id)
			t := m.oldestEligible(id)
			if t == nil {
				continue
			}
			m.remove(t)
			m.dispatch(m.core[id], t)
			pulled = true
		}
		if !pulled {
			return
		}
	}
}

// unparkAll re-places every parked thread of p. makeReady may park a
// thread again while the old list is walked, so the list alternates
// between two buffers: re-parks go to the spare one, and the walked one
// becomes the next spare.
func (m *Machine) unparkAll(p *Process) {
	parked := p.parked
	p.parked = p.parkedSpare[:0]
	p.parkedSpare = nil
	for _, t := range parked {
		if t.State == StateParked {
			m.makeReady(t)
		}
	}
	clear(parked)
	p.parkedSpare = parked[:0]
}

// Cancel terminates a single thread without firing OnDone; services use
// it to abandon the in-flight workers of a query that hit its deadline.
// Cancelling a Done thread is a no-op.
func (m *Machine) Cancel(t *Thread) {
	switch t.State {
	case StateDone:
		return
	case StateRunning:
		m.preempt(t)
	case StateReady:
		m.remove(t)
	case StateParked:
		t.fxPark += m.eng.Now().Sub(t.parkedAt)
		t.Proc.unpark(t)
	}
	t.State = StateDone
	t.Proc.dropThread()
}

// Kill terminates every thread of p without firing OnDone; detached
// threads are released.
func (m *Machine) Kill(p *Process) {
	for _, t := range p.threads {
		switch t.State {
		case StateRunning:
			m.preempt(t)
		case StateReady:
			m.remove(t)
		}
		t.State = StateDone
		if t.detached {
			t.released = true
			t.OnDone = nil
		}
		m.unlist(t)
	}
	p.threads = nil
	p.live = 0
	p.parked = nil
}

// SetCycleCap enables windowed CPU rate control for p: the process may
// consume frac of total machine cycles per window. The budget is burned
// while any of p's threads run; once exhausted the whole process freezes
// until the window ends — a token-bucket duty cycle, which is how both
// Windows CPU rate control and cgroups cpu.cfs_quota behave, and the
// mechanism behind the cascading delays of Fig. 7. frac <= 0 disables.
func (m *Machine) SetCycleCap(p *Process, frac float64, window sim.Duration) {
	p.capFrac = frac
	p.capWindow = window
	p.windowUsed = 0
	if frac <= 0 {
		if p.frozen {
			p.frozen = false
			m.unparkAll(p)
		}
		p.throttleOn = false
		return
	}
	if window <= 0 {
		panic("cpumodel: non-positive throttle window")
	}
	if p.throttleOn {
		return
	}
	p.throttleOn = true
	m.runThrottle(p)
	// Window reset ticker.
	m.eng.Ticker(window, func() bool {
		if p.capFrac <= 0 {
			p.throttleOn = false
			return false
		}
		p.windowUsed = 0
		if p.frozen {
			p.frozen = false
			p.wakeCounter++
			m.unparkAll(p)
		}
		return true
	})
}

// runThrottle polls the process's window budget at ThrottleCheck
// granularity and freezes it upon exhaustion.
func (m *Machine) runThrottle(p *Process) {
	m.eng.Ticker(m.cfg.ThrottleCheck, func() bool {
		if p.capFrac <= 0 {
			return false
		}
		if p.frozen {
			return true
		}
		m.AccrueAll()
		budget := sim.Duration(p.capFrac * float64(p.capWindow) * float64(m.cfg.Cores))
		if p.windowUsed >= budget {
			m.freeze(p)
		}
		return true
	})
}

// freeze parks every live thread of p until the window resets.
func (m *Machine) freeze(p *Process) {
	p.frozen = true
	victims := m.scratch[:0]
	for _, t := range p.threads {
		switch t.State {
		case StateRunning:
			m.preempt(t)
			victims = append(victims, t)
		case StateReady:
			m.remove(t)
			victims = append(victims, t)
		}
	}
	for _, t := range victims {
		m.park(t)
	}
	clear(victims)
	m.scratch = victims[:0]
}

// CheckInvariants panics if internal bookkeeping is inconsistent; tests
// call it after stress runs, and every single-machine cell once at its
// end. It allocates nothing once the machine's scratch has grown: a
// listed thread is found by binary search in its process's list, and
// the parked and free lists are checked for repeats by sorting a copy
// of each by thread ID, which is unique per machine.
func (m *Machine) CheckInvariants() {
	// Thread lists: ID order, the listed flag and live counts; parked
	// lists hold exactly their process's parked threads. A thread listed
	// twice breaks its list's ID order, or the Proc check in the other
	// process's list.
	for _, p := range m.procs {
		live, nParked := 0, 0
		for i, t := range p.threads {
			if t.Proc != p || !t.listed || (i > 0 && t.ID <= p.threads[i-1].ID) {
				panic(fmt.Sprintf("process %s: thread %d misfiled in its thread list", p.Name, t.ID))
			}
			if t.released && t.State != StateDone {
				panic(fmt.Sprintf("process %s: released thread %d is %v", p.Name, t.ID, t.State))
			}
			if t.detached && t.State == StateDone && !t.released {
				panic(fmt.Sprintf("process %s: finished detached thread %d not released", p.Name, t.ID))
			}
			if t.State != StateDone {
				live++
			}
			if t.State == StateParked {
				nParked++
			}
		}
		if live != p.live {
			panic(fmt.Sprintf("process %s live=%d but %d live threads listed", p.Name, p.live, live))
		}
		if len(p.parked) != nParked {
			panic(fmt.Sprintf("process %s: %d parked entries for %d parked threads", p.Name, len(p.parked), nParked))
		}
		for _, t := range p.parked {
			if t.Proc != p || t.State != StateParked || !m.isListed(t) {
				panic(fmt.Sprintf("process %s: parked list holds %v thread %d", p.Name, t.State, t.ID))
			}
		}
		if t := m.repeated(p.parked); t != nil {
			panic(fmt.Sprintf("process %s: parked list holds thread %d twice", p.Name, t.ID))
		}
	}
	// The free list: released threads nothing else references. The
	// checks above have seen every listed thread's listed flag and every
	// parked one's state.
	for _, t := range m.free {
		if !t.released || t.listed || t.State != StateDone {
			panic(fmt.Sprintf("free thread %d (%v) still referenced", t.ID, t.State))
		}
	}
	if t := m.repeated(m.free); t != nil {
		panic(fmt.Sprintf("free list holds thread %d twice", t.ID))
	}
	queued := 0
	for _, c := range m.core {
		if c.running != nil {
			if !m.isListed(c.running) {
				panic(fmt.Sprintf("core %d runs unlisted thread %d", c.id, c.running.ID))
			}
			if m.idleMask.Has(c.id) {
				panic(fmt.Sprintf("core %d running but marked idle", c.id))
			}
			if c.running.State != StateRunning {
				panic(fmt.Sprintf("core %d running thread in state %v", c.id, c.running.State))
			}
			if !c.running.eff().Has(c.id) && m.cfg.EvictionLatency == 0 {
				// With delayed eviction this state is legal for up to
				// EvictionLatency after an affinity shrink.
				panic(fmt.Sprintf("core %d runs thread outside its affinity %v", c.id, c.running.eff()))
			}
		} else if !m.idleMask.Has(c.id) {
			panic(fmt.Sprintf("core %d idle but not in idle mask", c.id))
		}
		for _, t := range c.queue {
			if !m.isListed(t) {
				panic(fmt.Sprintf("core %d queues unlisted thread %d", c.id, t.ID))
			}
			if t.State == StateReady {
				queued++
			}
		}
	}
	if queued != m.queuedCount {
		panic(fmt.Sprintf("queuedCount=%d but %d ready threads in queues", m.queuedCount, queued))
	}
	for _, p := range m.procs {
		n := 0
		for _, c := range m.core {
			for _, t := range c.queue {
				if t.Proc == p && t.State == StateReady {
					n++
				}
			}
		}
		if p.queued != n {
			panic(fmt.Sprintf("process %s queued=%d but %d of its ready threads in queues", p.Name, p.queued, n))
		}
	}
}

// isListed reports whether t is in the thread list of its process, and
// that process is one of m's. CheckInvariants has found every list in
// ascending ID order by the time it asks, so a binary search finds t.
func (m *Machine) isListed(t *Thread) bool {
	if !slices.Contains(m.procs, t.Proc) {
		return false
	}
	ts := t.Proc.threads
	i, ok := slices.BinarySearchFunc(ts, t.ID, func(x *Thread, id int) int { return cmp.Compare(x.ID, id) })
	return ok && ts[i] == t
}

// repeated returns a thread that ts holds more than once, or nil. It
// sorts a copy of ts by ID in the machine's scratch and compares
// neighbours: IDs are unique per machine, so a repeated ID is a
// repeated thread.
func (m *Machine) repeated(ts []*Thread) *Thread {
	s := append(m.scratch[:0], ts...)
	slices.SortFunc(s, func(a, b *Thread) int { return cmp.Compare(a.ID, b.ID) })
	var dup *Thread
	for i := 1; i < len(s) && dup == nil; i++ {
		if s[i].ID == s[i-1].ID {
			dup = s[i]
		}
	}
	clear(s)
	m.scratch = s[:0]
	return dup
}
