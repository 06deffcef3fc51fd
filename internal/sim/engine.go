package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration's representation so the usual constants read naturally.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports d as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (t Time) String() string     { return fmt.Sprintf("t+%.6fs", t.Seconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// event is one scheduled entry in the engine's queue or a lane: the
// (at, seq) key plus the index of its callback in the engine's slot
// pool. seq breaks ties so that events scheduled earlier at the same
// timestamp run first (stable FIFO ordering) — the contract
// bit-identical reproduction rests on. The struct is pointer-free on
// purpose: the queue's buckets are never scanned by the GC and moving
// entries incurs no write barriers.
type event struct {
	at   Time
	seq  uint64
	slot int32
}

// Less orders events by (at, seq). The seq tie-break makes the order
// total: no two live events compare equal.
func (a event) Less(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events queue
	// lanes are the fixed-delay FIFOs handed out by NewDelay, one per
	// distinct delay. Each is sorted by (at, seq) on its own, so the
	// next event is the least of the queue's minimum and the lane
	// fronts.
	lanes   []*Delay
	stopped bool

	// fns is the pooled callback storage: events carry slot indices
	// into it, so the queue stays pointer-free and popped slots are
	// recycled through free instead of churning the allocator. A slot
	// is cleared (and recycled) before its callback runs, so a
	// callback that schedules new events reuses storage without ever
	// aliasing a live closure. slotSeq pairs each occupied slot with
	// the seq of its event; a queued entry whose seq no longer matches
	// was cancelled and is discarded on pop (lazy deletion).
	fns     []func()
	slotSeq []uint64
	free    []int32
	// live counts scheduled-and-not-cancelled events; it is what
	// Pending reports (the queue and lanes may additionally hold
	// cancelled entries awaiting lazy removal).
	live int

	// executed counts dispatched events and discarded the cancelled
	// entries dropped without running; with what is still queued they
	// account for every push (Counts).
	executed  uint64
	discarded uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have been dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are currently queued (cancelled
// events are excluded).
func (e *Engine) Pending() int { return e.live }

// Counts reports the engine's event accounting: entries pushed onto
// the queue or a lane, entries popped off them (dispatched, or
// discarded because they were cancelled), and the queue's high-water
// mark, which leaves out entries waiting in lanes.
func (e *Engine) Counts() (pushed, popped uint64, maxDepth int) {
	popped = e.executed + e.discarded
	queued := e.events.Len()
	for _, l := range e.lanes {
		queued += l.n
	}
	return popped + uint64(queued), popped, e.events.peak
}

// takeSlot stores fn in a recycled (or fresh) slot, stamps it with the
// event's seq, and returns the slot index.
func (e *Engine) takeSlot(fn func(), seq uint64) int32 {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.fns[slot] = fn
		e.slotSeq[slot] = seq
	} else {
		slot = int32(len(e.fns))
		e.fns = append(e.fns, fn)
		e.slotSeq = append(e.slotSeq, seq)
	}
	return slot
}

// At schedules fn to run at absolute time t. Scheduling at exactly the
// current instant is legal and runs fn after every event already
// scheduled for now (FIFO). Scheduling in the past panics: it always
// indicates a model bug, and silently reordering time would corrupt
// every downstream measurement.
func (e *Engine) At(t Time, fn func()) { e.AtTimer(t, fn) }

// AtTimer is At returning a Timer that can later cancel the event.
func (e *Engine) AtTimer(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	seq := e.seq
	slot := e.takeSlot(fn, seq)
	e.live++
	e.events.push(event{at: t, seq: seq, slot: slot}, e.now)
	return Timer{slot: slot, seq: seq}
}

// After schedules fn to run d from now. Negative d panics via At.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now.Add(d), fn) }

// AfterTimer is After returning a cancellation Timer.
func (e *Engine) AfterTimer(d Duration, fn func()) Timer {
	return e.AtTimer(e.now.Add(d), fn)
}

// Timer identifies one scheduled event for cancellation. The zero Timer
// is valid and never matches a live event.
type Timer struct {
	slot int32
	seq  uint64
}

// Cancel revokes a scheduled event so its callback never runs. It
// reports whether the event was still pending; cancelling an event that
// already ran (or was already cancelled) is a harmless no-op. The seq
// stamp makes stale Timers safe even after their slot is recycled.
//
// Cancellation is lazy: the queue or lane entry stays queued and is
// discarded when it surfaces. Removing an entry from a totally ordered
// queue never reorders the remaining events — and a cancelled entry
// neither advances the clock nor counts as executed — so cancelling an
// event that would have been a no-op is observationally invisible.
func (e *Engine) Cancel(tm Timer) bool {
	if tm.seq == 0 || int(tm.slot) >= len(e.fns) || e.slotSeq[tm.slot] != tm.seq {
		return false
	}
	e.fns[tm.slot] = nil
	e.slotSeq[tm.slot] = 0
	e.live--
	return true
}

// next returns the least (at, seq) entry among the queue's minimum and
// the lane fronts, cancelled entries included, and the lane holding it
// (nil for the queue). ok is false when nothing is queued. Treating
// the union this way makes the queue and lanes behave as one queue, so
// execution order — and which cancelled entries have been discarded at
// any point — is exactly what a single queue holding every entry gives.
func (e *Engine) next() (ev event, lane *Delay, ok bool) {
	if e.events.Len() > 0 {
		ev, ok = e.events.min(), true
	}
	for _, l := range e.lanes {
		if l.n == 0 {
			continue
		}
		if f := l.buf[l.head]; !ok || f.Less(ev) {
			ev, lane, ok = f, l, true
		}
	}
	return ev, lane, ok
}

// drop removes the entry next just returned from its queue. Taking it
// out of the event queue moves the queue's base to its time, unless
// hold is set because the clock will not follow.
func (e *Engine) drop(lane *Delay, hold bool) {
	switch {
	case lane != nil:
		lane.pop()
	case hold:
		e.events.remove()
	default:
		e.events.pop()
	}
}

// fire runs a live entry that has just been removed from its queue.
func (e *Engine) fire(ev event) {
	// Copy the callback out and recycle its slot before running it: the
	// callback may schedule new events into the freed slot, and must
	// never observe (or clobber) the closure it is itself executing.
	fn := e.fns[ev.slot]
	e.fns[ev.slot] = nil
	e.slotSeq[ev.slot] = 0
	e.free = append(e.free, ev.slot)
	e.live--
	e.now = ev.at
	e.executed++
	fn()
}

// Step dispatches the next event. It reports false when no events remain.
func (e *Engine) Step() bool {
	for {
		ev, lane, ok := e.next()
		if !ok {
			return false
		}
		e.drop(lane, false)
		if e.slotSeq[ev.slot] != ev.seq {
			// Cancelled: recycle the slot (held since Cancel so the
			// stale entry could never alias a newer event) and keep
			// the clock where it is.
			e.free = append(e.free, ev.slot)
			e.discarded++
			continue
		}
		e.fire(ev)
		return true
	}
}

// Run dispatches events until the queue is empty or the next event lies
// beyond until, and then advances the clock to until. After Stop it
// returns at once, with the clock at the stopping event. It returns the
// number of events dispatched.
func (e *Engine) Run(until Time) uint64 {
	start := e.executed
	for !e.stopped {
		ev, lane, ok := e.next()
		if ok && e.slotSeq[ev.slot] != ev.seq {
			// Cancelled head: discard without touching the clock. Past
			// until the clock stops short of it, so the queue must not
			// move its base there: events may yet be scheduled between
			// until and ev.at.
			e.drop(lane, ev.at > until)
			e.free = append(e.free, ev.slot)
			e.discarded++
			continue
		}
		if !ok || ev.at > until {
			if e.now < until {
				e.now = until
			}
			break
		}
		e.drop(lane, false)
		e.fire(ev)
	}
	e.stopped = false
	return e.executed - start
}

// RunAll dispatches every remaining event.
func (e *Engine) RunAll() uint64 {
	start := e.executed
	for e.Step() {
		if e.stopped {
			e.stopped = false
			break
		}
	}
	return e.executed - start
}

// Stop makes the current Run/RunAll call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// Agenda streams a pre-planned batch of events into the engine without
// holding them all in the queue at once. NewAgenda reserves the next n
// sequence numbers at call time, so events fed through Agenda.At keep
// exactly the (at, seq) order they would have had if all n had been
// scheduled up front at that point — including FIFO ties against one
// another and against every other event — while the queue only ever
// holds the handful actually in flight. Replayers use this to chain
// half-million-query traces without queueing the whole trace.
//
// Agenda.At calls must be made in planning order (they consume the
// reserved seqs sequentially) and, as with Engine.At, may not schedule
// into the past — which in a chained replay means the planned times
// must be nondecreasing.
type Agenda struct {
	e    *Engine
	next uint64
	end  uint64
}

// NewAgenda reserves seq numbers for the next n events.
func (e *Engine) NewAgenda(n int) *Agenda {
	if n < 0 {
		panic("sim: negative agenda size")
	}
	a := &Agenda{e: e, next: e.seq + 1, end: e.seq + 1 + uint64(n)}
	e.seq += uint64(n)
	return a
}

// Remaining reports how many reserved slots are left.
func (a *Agenda) Remaining() int { return int(a.end - a.next) }

// At schedules fn at time t under the next reserved sequence number.
func (a *Agenda) At(t Time, fn func()) {
	if a.next >= a.end {
		panic("sim: agenda exhausted")
	}
	e := a.e
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	seq := a.next
	a.next++
	slot := e.takeSlot(fn, seq)
	e.live++
	e.events.push(event{at: t, seq: seq, slot: slot}, e.now)
}

// Delay is a fixed-delay lane: a FIFO of events that each fire d after
// they were scheduled. The clock never goes back and seq only grows, so
// appending (now+d, seq) keeps a lane sorted by (at, seq), and the
// engine dispatches the least of the queue's minimum and the lane
// fronts — execution order is exactly what AfterTimer(d, ...) gives.
// A timer that is nearly always cancelled (a query deadline, a quantum
// expiry) thereby waits in its lane rather than crowding the queue
// every other event is popped through.
type Delay struct {
	e   *Engine
	d   Duration
	buf []event // ring buffer; its length is zero or a power of two
	// head indexes the front entry; n entries follow it, wrapping.
	head, n int
}

// NewDelay returns the engine's lane for delay d, creating it on first
// use. Every caller asking for the same d shares one lane. A negative d
// panics: it would schedule into the past.
func (e *Engine) NewDelay(d Duration) *Delay {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %v", d))
	}
	for _, l := range e.lanes {
		if l.d == d {
			return l
		}
	}
	l := &Delay{e: e, d: d}
	e.lanes = append(e.lanes, l)
	return l
}

// After schedules fn to run the lane's delay d from now and returns a
// Timer that Engine.Cancel accepts. It is AfterTimer(d, fn) in every
// observable respect: the same seq is stamped, the event runs at the
// same point of the total order, and Counts sees one push (though the
// queue's high-water mark does not count lane entries).
func (l *Delay) After(fn func()) Timer {
	e := l.e
	e.seq++
	seq := e.seq
	slot := e.takeSlot(fn, seq)
	e.live++
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = event{at: e.now.Add(l.d), seq: seq, slot: slot}
	l.n++
	return Timer{slot: slot, seq: seq}
}

// pop removes the front entry.
func (l *Delay) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// grow doubles the full ring, unwrapping it so the front is at index 0.
func (l *Delay) grow() {
	size := 2 * len(l.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]event, size)
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// Ticker invokes fn every period until it returns false. The first call
// happens one period from now.
func (e *Engine) Ticker(period Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
}
