package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// This file keeps the engine's original container/heap design alive as
// a test-only reference implementation: boxed events ordered by the
// same (at, seq) key, driven through heap.Interface. The differential
// tests below run randomized schedules — equal-timestamp bursts,
// self-rescheduling callbacks, cancellations, mixed Step/Run draining,
// fixed-delay lanes and agendas — against both implementations and
// require identical execution traces.
// BenchmarkEventHeap (heap_bench_test.go) uses the same reference as
// its "ref" side.

type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old) - 1
	ev := old[n]
	old[n] = nil
	*q = old[:n]
	return ev
}

// refEngine is the reference discrete-event loop: same scheduling
// semantics as Engine (FIFO ties, past-panic, lazy cancellation, Run
// clock advancement), built on container/heap.
type refEngine struct {
	now      Time
	q        refQueue
	seq      uint64
	executed uint64
	live     int
}

func (e *refEngine) At(t Time, fn func()) *refEvent {
	e.seq++
	return e.atSeq(t, e.seq, fn)
}

// atSeq schedules fn at t under a seq reserved earlier; it is how the
// reference replays an Agenda.
func (e *refEngine) atSeq(t Time, seq uint64, fn func()) *refEvent {
	if t < e.now {
		panic(fmt.Sprintf("refsim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &refEvent{at: t, seq: seq, fn: fn}
	heap.Push(&e.q, ev)
	e.live++
	return ev
}

func (e *refEngine) Cancel(ev *refEvent) bool {
	if ev == nil || ev.cancelled || ev.fn == nil {
		return false
	}
	ev.cancelled = true
	ev.fn = nil
	e.live--
	return true
}

func (e *refEngine) Step() bool {
	for len(e.q) > 0 {
		ev := heap.Pop(&e.q).(*refEvent)
		if ev.cancelled {
			continue
		}
		fn := ev.fn
		ev.fn = nil
		e.live--
		e.now = ev.at
		e.executed++
		fn()
		return true
	}
	return false
}

func (e *refEngine) Run(until Time) {
	for len(e.q) > 0 {
		if e.q[0].cancelled {
			heap.Pop(&e.q)
			continue
		}
		if e.q[0].at > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// simAPI abstracts the two engines so one scripted workload can drive
// both identically.
type simAPI interface {
	now() Time
	schedule(t Time, fn func()) (cancel func() bool)
	// after schedules fn progDelays[lane] from now.
	after(lane int, fn func()) (cancel func() bool)
	// agenda reserves n seqs and returns the function that feeds them.
	agenda(n int) (at func(t Time, fn func()))
	step() bool
	run(until Time)
	pending() int
	numExecuted() uint64
}

// progDelays are the fixed delays lane programs draw from: zero, and
// 17 twice so that two callers share one lane.
var progDelays = []Duration{0, 3, 17, 17, 250}

// newAPI drives an Engine. Fixed-delay events go through lanes, or
// through AfterTimer when viaHeap is set.
type newAPI struct {
	e       *Engine
	lanes   []*Delay
	viaHeap bool
}

func newEngineAPI(e *Engine, viaHeap bool) newAPI {
	a := newAPI{e: e, viaHeap: viaHeap}
	for _, d := range progDelays {
		a.lanes = append(a.lanes, e.NewDelay(d))
	}
	return a
}

func (a newAPI) now() Time { return a.e.Now() }
func (a newAPI) schedule(t Time, fn func()) func() bool {
	tm := a.e.AtTimer(t, fn)
	return func() bool { return a.e.Cancel(tm) }
}
func (a newAPI) after(lane int, fn func()) func() bool {
	var tm Timer
	if a.viaHeap {
		tm = a.e.AfterTimer(progDelays[lane], fn)
	} else {
		tm = a.lanes[lane].After(fn)
	}
	return func() bool { return a.e.Cancel(tm) }
}
func (a newAPI) agenda(n int) func(t Time, fn func()) { return a.e.NewAgenda(n).At }
func (a newAPI) step() bool                           { return a.e.Step() }
func (a newAPI) run(until Time)                       { a.e.Run(until) }
func (a newAPI) pending() int                         { return a.e.Pending() }
func (a newAPI) numExecuted() uint64                  { return a.e.Executed() }

type refAPI struct{ e *refEngine }

func (a refAPI) now() Time { return a.e.now }
func (a refAPI) schedule(t Time, fn func()) func() bool {
	ev := a.e.At(t, fn)
	return func() bool { return a.e.Cancel(ev) }
}
func (a refAPI) after(lane int, fn func()) func() bool {
	return a.schedule(a.e.now.Add(progDelays[lane]), fn)
}
func (a refAPI) agenda(n int) func(t Time, fn func()) {
	next := a.e.seq + 1
	a.e.seq += uint64(n)
	return func(t Time, fn func()) {
		a.e.atSeq(t, next, fn)
		next++
	}
}
func (a refAPI) step() bool          { return a.e.Step() }
func (a refAPI) run(until Time)      { a.e.Run(until) }
func (a refAPI) pending() int        { return a.e.live }
func (a refAPI) numExecuted() uint64 { return a.e.executed }

type firing struct {
	id uint64
	at Time
}

// driveScript runs one randomized scenario against an engine. All
// decisions come from a seeded RNG whose draw order depends only on
// the engine's dispatch order, so two implementations with identical
// semantics consume identical streams and produce identical traces —
// and any semantic divergence derails the trace immediately.
func driveScript(e simAPI, seed uint64) (trace []firing, executed uint64, end Time) {
	rng := NewRNG(seed)
	var nextID uint64
	var cancels []func() bool

	var spawn func(depth int)
	spawn = func(depth int) {
		id := nextID
		nextID++
		// Heavy mass at offset zero forces same-instant bursts; the
		// other branches mix near-ties and spread-out events.
		var off Duration
		switch rng.Intn(4) {
		case 0, 1:
			off = 0
		case 2:
			off = Duration(rng.Intn(3))
		default:
			off = Duration(rng.Intn(1000))
		}
		cancel := e.schedule(e.now().Add(off), func() {
			trace = append(trace, firing{id: id, at: e.now()})
			if depth > 0 {
				for k := rng.Intn(3); k > 0; k-- {
					spawn(depth - 1)
				}
			}
			// Occasionally cancel an arbitrary timer: pending, fired,
			// already cancelled — all must behave identically.
			if len(cancels) > 0 && rng.Intn(4) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		})
		cancels = append(cancels, cancel)
	}

	for i := 0; i < 40; i++ {
		spawn(3)
	}
	for e.pending() > 0 {
		if rng.Intn(3) == 0 {
			e.step()
		} else {
			e.run(e.now().Add(Duration(rng.Intn(400) + 1)))
		}
	}
	return trace, e.numExecuted(), e.now()
}

func TestEngineDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		gotTrace, gotExec, gotEnd := driveScript(newEngineAPI(NewEngine(), false), seed)
		wantTrace, wantExec, wantEnd := driveScript(refAPI{&refEngine{}}, seed)
		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("seed %d: %d firings, reference %d", seed, len(gotTrace), len(wantTrace))
		}
		for i := range gotTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, gotTrace[i], wantTrace[i])
			}
		}
		if gotExec != wantExec {
			t.Fatalf("seed %d: executed %d, reference %d", seed, gotExec, wantExec)
		}
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: final clock %v, reference %v", seed, gotEnd, wantEnd)
		}
	}
}

// TestEngineDifferentialAgenda replays the same planned batch through
// Agenda-chained streaming on the new engine and up-front scheduling
// on the reference: the bit-identical-replay contract says the firing
// orders must match exactly, including FIFO ties.
func TestEngineDifferentialAgenda(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		n := 200 + rng.Intn(200)
		times := make([]Time, n)
		var at Time
		for i := range times {
			// Zero gaps are common, producing long equal-time runs.
			at = at.Add(Duration(rng.Intn(3)))
			times[i] = at
		}

		ref := &refEngine{}
		var wantTrace []firing
		for i, tt := range times {
			i, tt := i, tt
			ref.At(tt, func() { wantTrace = append(wantTrace, firing{id: uint64(i), at: ref.now}) })
		}
		ref.Run(at + 10)

		e := NewEngine()
		var gotTrace []firing
		a := e.NewAgenda(n)
		var next func(i int)
		next = func(i int) {
			a.At(times[i], func() {
				if i+1 < n {
					next(i + 1)
				}
				gotTrace = append(gotTrace, firing{id: uint64(i), at: e.Now()})
			})
		}
		next(0)
		e.Run(at + 10)

		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("seed %d: %d firings, reference %d", seed, len(gotTrace), len(wantTrace))
		}
		for i := range gotTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, gotTrace[i], wantTrace[i])
			}
		}
	}
}

// progRecord is one line of a lane program's log: an event firing
// (kind 'f'), a cancel or step result ('c', 's'), or the engine's state
// after an op ('o'). Two engines with identical semantics write
// identical logs.
type progRecord struct {
	kind byte
	id   uint64
	at   Time
	n    uint64 // pending after an op; executed count otherwise
	ok   bool
}

// runProgram interprets data as a scheduling program and returns its
// log. Each op is a code byte and one parameter byte:
//
//	0     heap timer at now+p (At/AtTimer)
//	1, 2  lane timer on progDelays[p%len] (Delay.After)
//	3     agenda of 1+p%4 events, fed one at a time as each fires
//	4     cancel timer p%len of every timer made so far, live or not
//	5     Step
//	6     Run(now+4p)
//	7     heap timer at now+p%4, dense ties
//
// Callbacks also act: by id, a firing schedules a lane or heap child
// (to depth 2) or cancels an earlier timer, so same-instant scheduling
// from inside a callback is covered. After the ops the queue is
// drained with Step. afterOp, if set, runs after every op.
func runProgram(e simAPI, data []byte, afterOp func()) []progRecord {
	var log []progRecord
	var cancels []func() bool
	var nextID uint64
	var fired func(id uint64, depth int) func()
	fired = func(id uint64, depth int) func() {
		return func() {
			log = append(log, progRecord{kind: 'f', id: id, at: e.now(), n: e.numExecuted()})
			if depth >= 2 {
				return
			}
			switch id % 5 {
			case 0:
				cid := nextID
				nextID++
				cancels = append(cancels, e.after(int(id/5)%len(progDelays), fired(cid, depth+1)))
			case 1:
				cid := nextID
				nextID++
				cancels = append(cancels, e.schedule(e.now().Add(Duration(id%3)), fired(cid, depth+1)))
			case 2:
				ok := cancels[int(id)%len(cancels)]()
				log = append(log, progRecord{kind: 'c', id: id, ok: ok})
			}
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, p := data[i]%8, data[i+1]
		switch op {
		case 0, 7:
			off := Duration(p)
			if op == 7 {
				off %= 4
			}
			id := nextID
			nextID++
			cancels = append(cancels, e.schedule(e.now().Add(off), fired(id, 0)))
		case 1, 2:
			id := nextID
			nextID++
			cancels = append(cancels, e.after(int(p)%len(progDelays), fired(id, 0)))
		case 3:
			n := 1 + int(p)%4
			at := e.agenda(n)
			var feed func(k int, t Time)
			feed = func(k int, t Time) {
				id := nextID
				nextID++
				at(t, func() {
					log = append(log, progRecord{kind: 'f', id: id, at: e.now(), n: e.numExecuted()})
					if k+1 < n {
						feed(k+1, e.now().Add(Duration(id*7%5)))
					}
				})
			}
			feed(0, e.now().Add(Duration(p%16)))
		case 4:
			if len(cancels) > 0 {
				ok := cancels[int(p)%len(cancels)]()
				log = append(log, progRecord{kind: 'c', id: uint64(p), ok: ok})
			}
		case 5:
			log = append(log, progRecord{kind: 's', ok: e.step(), n: e.numExecuted()})
		case 6:
			e.run(e.now().Add(4 * Duration(p)))
		}
		log = append(log, progRecord{kind: 'o', id: uint64(i / 2), at: e.now(), n: uint64(e.pending())})
		if afterOp != nil {
			afterOp()
		}
	}
	for e.step() {
	}
	log = append(log, progRecord{kind: 'o', at: e.now(), n: e.numExecuted()})
	return log
}

// diffLogs reports the first difference between two program logs.
func diffLogs(got, want []progRecord) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("record %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, reference %d", len(got), len(want))
	}
	return ""
}

// TestEngineDifferentialLanes runs random programs mixing lane timers
// (several delays, zero, one delay shared by two callers), heap timers,
// agendas, cancels of both kinds and Run cut-offs on the engine and on
// the container/heap reference. Execution order, cancel results,
// pending counts and clocks must agree record for record.
func TestEngineDifferentialLanes(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRNG(seed)
		data := make([]byte, 2*(20+rng.Intn(200)))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		got := runProgram(newEngineAPI(NewEngine(), false), data, nil)
		want := runProgram(refAPI{&refEngine{}}, data, nil)
		if d := diffLogs(got, want); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

func TestNewDelaySharesLanes(t *testing.T) {
	e := NewEngine()
	a, b := e.NewDelay(17), e.NewDelay(17)
	if a != b {
		t.Fatal("two NewDelay calls for one duration returned different lanes")
	}
	if c := e.NewDelay(18); c == a || c.d != 18 {
		t.Fatalf("NewDelay(18) = lane for %v", c.d)
	}
	if len(e.lanes) != 2 {
		t.Fatalf("%d lanes, want 2", len(e.lanes))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative lane delay did not panic")
		}
	}()
	e.NewDelay(-1)
}

// TestDelayRingWraps grows a lane while its ring has wrapped, and
// checks entries still come out in order.
func TestDelayRingWraps(t *testing.T) {
	e := NewEngine()
	l := e.NewDelay(10)
	var got []int
	next := 0
	push := func() {
		id := next
		next++
		l.After(func() { got = append(got, id) })
	}
	for i := 0; i < 12; i++ {
		push()
	}
	e.Run(10) // all 12 fire; head has moved to 12
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ { // wraps the 16-entry ring, then grows it
			push()
		}
		e.Step()
		e.Run(e.Now().Add(5))
	}
	e.RunAll()
	if len(got) != next {
		t.Fatalf("%d of %d lane events fired", len(got), next)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("firing %d is event %d: lane order broken", i, id)
		}
	}
}

// TestLaneHoldsOnlyLiveTimers is IndexServe's deadline pattern at
// 4,000 QPS: a 350 ms lane timer armed every 250 µs and cancelled 4 ms
// later, while a 100 µs ticker keeps the queue busy, so no Run ever
// reaches the lane's front. A lane that kept its cancelled entries
// until their time would hold 1,400 of them; one that trims its front
// holds only the 16 live timers and the one just armed.
func TestLaneHoldsOnlyLiveTimers(t *testing.T) {
	const (
		step     = 250 * Microsecond
		deadline = 350 * Millisecond
		finishIn = 16 // steps between arming and cancelling
	)
	e := NewEngine()
	lane := e.NewDelay(deadline)
	ticks := 0
	e.Ticker(100*Microsecond, func() bool {
		ticks++
		return true
	})
	var armed [finishIn]Timer
	peak := 0
	for i := 0; i < 3*int(deadline/step); i++ {
		k := i % finishIn
		prev := armed[k]
		armed[k] = lane.After(func() { t.Error("a cancelled deadline fired") })
		peak = max(peak, lane.ring.Len())
		if i >= finishIn && !e.Cancel(prev) {
			t.Fatalf("step %d: deadline armed %d steps earlier was not pending", i, finishIn)
		}
		e.Run(e.Now().Add(step))
		peak = max(peak, lane.ring.Len())
	}
	if peak > finishIn+1 {
		t.Fatalf("lane held %d entries, want at most %d", peak, finishIn+1)
	}
	if want := 3 * int(deadline/(100*Microsecond)); ticks != want {
		t.Fatalf("%d ticks, want %d", ticks, want)
	}
}
