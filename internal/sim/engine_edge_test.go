package sim

import (
	"strings"
	"testing"
)

// Edge cases of the rewritten engine core: same-instant scheduling,
// empty-queue panics and the queue's base rules, burst growth and
// slot-pool reuse, cancellation, and the Agenda streaming contract.

func TestEngineScheduleAtCurrentInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() {
		got = append(got, 1)
		// Scheduling at exactly Now is legal and must run after the
		// events already queued for this instant.
		e.At(e.Now(), func() { got = append(got, 3) })
	})
	e.At(10, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("same-instant scheduling order = %v, want [1 2 3]", got)
	}
}

func TestHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop on an empty queue did not panic")
		}
	}()
	var q queue
	q.pop()
}

func TestHeapMinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("min on an empty queue did not panic")
		}
	}()
	var q queue
	q.min()
}

func TestQueuePushBelowBasePanics(t *testing.T) {
	var q queue
	q.push(event{at: 10, seq: 1}, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("push below the base did not panic")
		}
	}()
	q.push(event{at: 5, seq: 2}, 10)
}

// The next three tests pin the rules that keep the queue's base from
// passing the clock; breaking any one makes a legal schedule panic.

func TestQueuePeekKeepsBase(t *testing.T) {
	// The engine peeks the queue (minimum 100) to compare it with a
	// lane front (10). The lane wins, and its callback schedules at 50,
	// below the queue's minimum.
	e := NewEngine()
	var got []Time
	e.At(100, func() { got = append(got, e.Now()) })
	e.NewDelay(10).After(func() {
		e.At(50, func() { got = append(got, e.Now()) })
	})
	e.RunAll()
	if len(got) != 2 || got[0] != 50 || got[1] != 100 {
		t.Fatalf("fired at %v, want [50 100]", got)
	}
}

func TestQueueDiscardPastUntilKeepsBase(t *testing.T) {
	// Run(50) discards the cancelled head at 100 and stops the clock at
	// 50, so 60 is still a legal time to schedule at.
	e := NewEngine()
	var got []Time
	tm := e.AtTimer(100, func() { t.Error("cancelled event fired") })
	e.At(200, func() { got = append(got, e.Now()) })
	e.Cancel(tm)
	e.Run(50)
	e.At(60, func() { got = append(got, e.Now()) })
	e.RunAll()
	if len(got) != 2 || got[0] != 60 || got[1] != 200 {
		t.Fatalf("fired at %v, want [60 200]", got)
	}
}

func TestQueueEmptyTakesClockAsBase(t *testing.T) {
	// An empty queue takes the clock, not the first pushed time, as its
	// base: a later push may be earlier.
	e := NewEngine()
	var got []Time
	record := func() { got = append(got, e.Now()) }
	e.At(100, record)
	e.At(50, record)
	e.RunAll()
	// Step discards the last entry, a cancelled one at 300, which may
	// move the base past the clock (100); the next push must reset it.
	e.Cancel(e.AtTimer(300, record))
	if e.Step() {
		t.Fatal("Step ran a cancelled event")
	}
	e.At(e.Now(), record)
	e.RunAll()
	if len(got) != 3 || got[0] != 50 || got[1] != 100 || got[2] != 100 {
		t.Fatalf("fired at %v, want [50 100 100]", got)
	}
}

func TestQueueBucketZeroSeqOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	record := func(s string) func() { return func() { got = append(got, s) } }
	// By push: an Agenda's reserved seq is smaller than the seqs
	// already queued at the base.
	a := e.NewAgenda(1)
	e.At(0, record("b"))
	e.At(0, record("c"))
	a.At(0, record("a"))
	// By redistribution: discarding the cancelled entry at 64 past
	// until swaps the last entry of its bucket (e) into its place,
	// ahead of d.
	x := e.AtTimer(64, record("x"))
	e.At(100, record("d"))
	e.At(100, record("e"))
	e.Cancel(x)
	e.Run(50)
	e.RunAll()
	if s := strings.Join(got, " "); s != "a b c d e" {
		t.Fatalf("order %q, want \"a b c d e\"", s)
	}
}

func TestEngineBurstGrowthAndReuse(t *testing.T) {
	// A 100k-event burst must grow the queue and slot pool, drain
	// cleanly, and leave both fully reusable.
	const n = 100_000
	e := NewEngine()
	fired := 0
	for i := 0; i < n; i++ {
		e.At(Time(i%977), func() { fired++ })
	}
	if e.Pending() != n {
		t.Fatalf("pending = %d, want %d", e.Pending(), n)
	}
	e.RunAll()
	if fired != n || e.Pending() != 0 {
		t.Fatalf("fired %d (pending %d), want %d (0)", fired, e.Pending(), n)
	}
	// A second burst must recycle the freed slots, not grow the pool.
	slots := len(e.fns)
	for i := 0; i < n; i++ {
		e.After(Duration(i%977), func() { fired++ })
	}
	e.RunAll()
	if fired != 2*n {
		t.Fatalf("fired %d after second burst, want %d", fired, 2*n)
	}
	if len(e.fns) != slots {
		t.Fatalf("slot pool grew from %d to %d on reuse", slots, len(e.fns))
	}
}

func TestEngineSlotReuseNoAliasing(t *testing.T) {
	// A callback that schedules a new event reuses the slot of the
	// event being dispatched (LIFO free list). The recycled slot must
	// hold the new callback, never alias the one mid-execution.
	e := NewEngine()
	var got []string
	e.At(1, func() {
		got = append(got, "a")
		e.At(2, func() { got = append(got, "b") })
	})
	e.RunAll()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
	if len(e.fns) != 1 {
		t.Fatalf("slot pool has %d slots, want 1 (recycled)", len(e.fns))
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterTimer(100, func() { fired = true })
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if !e.Cancel(tm) {
		t.Fatal("Cancel of a pending event returned false")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel, want 0", e.Pending())
	}
	if e.Cancel(tm) {
		t.Fatal("second Cancel returned true")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Executed() != 0 {
		t.Fatalf("executed = %d, want 0", e.Executed())
	}

	// Cancelling after the event ran is a no-op.
	tm = e.AfterTimer(1, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("event did not fire")
	}
	if e.Cancel(tm) {
		t.Fatal("Cancel of an already-fired event returned true")
	}
	if e.Cancel(Timer{}) {
		t.Fatal("Cancel of the zero Timer returned true")
	}
}

func TestEngineCancelStaleTimerAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	tmA := e.AfterTimer(1, func() {})
	e.RunAll() // consumes A, recycles its slot
	fired := false
	e.AfterTimer(1, func() { fired = true }) // B reuses A's slot
	if e.Cancel(tmA) {
		t.Fatal("stale Timer cancelled a newer event in the recycled slot")
	}
	e.RunAll()
	if !fired {
		t.Fatal("event in recycled slot did not fire")
	}
}

func TestEngineCancelledHeadDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.AtTimer(50, func() { fired++ })
	e.At(200, func() { fired++ })
	e.Cancel(tm)
	// Run past the cancelled event but short of the live one: the
	// clock must land on until, never on the cancelled timestamp.
	e.Run(100)
	if fired != 0 || e.Now() != 100 {
		t.Fatalf("fired=%d now=%v, want 0 at t=100", fired, e.Now())
	}
	e.RunAll()
	if fired != 1 || e.Now() != 200 {
		t.Fatalf("fired=%d now=%v, want 1 at t=200", fired, e.Now())
	}
}

func TestAgendaOrderMatchesUpfront(t *testing.T) {
	times := []Time{5, 5, 5, 7, 7, 9}

	upfront := NewEngine()
	var want []int
	for i, at := range times {
		i := i
		upfront.At(at, func() { want = append(want, i) })
	}
	upfront.RunAll()

	chained := NewEngine()
	var got []int
	a := chained.NewAgenda(len(times))
	var next func(i int)
	next = func(i int) {
		a.At(times[i], func() {
			if i+1 < len(times) {
				next(i + 1)
			}
			got = append(got, i)
		})
	}
	next(0)
	chained.RunAll()

	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAgendaTiesAgainstLaterEvents(t *testing.T) {
	// Reserved seqs predate anything scheduled after NewAgenda, so an
	// agenda event streamed in late still wins FIFO ties against an
	// event scheduled (with plain At) after the reservation.
	e := NewEngine()
	var got []string
	a := e.NewAgenda(2)
	e.At(10, func() { got = append(got, "later") })
	a.At(5, func() { a.At(10, func() { got = append(got, "agenda") }) })
	e.RunAll()
	if len(got) != 2 || got[0] != "agenda" || got[1] != "later" {
		t.Fatalf("got %v, want [agenda later]", got)
	}
}

func TestAgendaExhaustedPanics(t *testing.T) {
	e := NewEngine()
	a := e.NewAgenda(1)
	a.At(1, func() {})
	if a.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", a.Remaining())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-consuming an agenda did not panic")
		}
	}()
	a.At(2, func() {})
}

func TestAgendaPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.RunAll()
	a := e.NewAgenda(1)
	defer func() {
		if recover() == nil {
			t.Fatal("agenda scheduling in the past did not panic")
		}
	}()
	a.At(50, func() {})
}

func TestSeededRNGMatchesNewRNG(t *testing.T) {
	a := NewRNG(12345)
	b := SeededRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SeededRNG stream differs from NewRNG")
		}
	}
}

func TestRNGUint64n(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10_000; i++ {
		n := uint64(1 + r.Intn(1000))
		if v := r.Uint64n(n); v >= n {
			t.Fatalf("Uint64n(%d) = %d, out of range", n, v)
		}
	}
	// Deterministic: same seed, same stream.
	x, y := NewRNG(9), NewRNG(9)
	for i := 0; i < 100; i++ {
		if x.Uint64n(1000) != y.Uint64n(1000) {
			t.Fatal("Uint64n stream not deterministic")
		}
	}
}
