package sim

import (
	"math/bits"
	"testing"
)

func TestEngineCounts(t *testing.T) {
	e := NewEngine()
	e.At(Time(10*Second), func() {})
	e.At(Time(5*Second), func() {})
	e.After(20*Second, func() {})
	e.RunAll()

	pushed, popped, depth := e.Counts()
	if pushed != 3 || popped != 3 {
		t.Fatalf("pushed/popped = %d/%d, want 3/3", pushed, popped)
	}
	if depth != 3 {
		t.Fatalf("max depth = %d, want 3", depth)
	}
	if e.Now() != Time(20*Second) {
		t.Fatalf("now = %v, want 20s", e.Now())
	}
}

func TestEngineCountsRun(t *testing.T) {
	e := NewEngine()
	e.At(Time(2*Second), func() {})
	stale := e.AfterTimer(Second, func() {})
	e.At(Time(40*Second), func() {})
	e.Cancel(stale)
	e.Run(Time(30 * Second))
	if e.Now() != Time(30*Second) {
		t.Fatalf("now = %v, want 30s (Run advances to until)", e.Now())
	}
	// The cancelled entry was discarded, the 2 s event ran and the 40 s
	// one is still queued.
	if pushed, popped, _ := e.Counts(); pushed != 3 || popped != 2 {
		t.Fatalf("pushed/popped = %d/%d, want 3/2", pushed, popped)
	}
}

// laneTimer is the test's own record of one fixed-delay timer: its seq
// and whether it has fired or been cancelled.
type laneTimer struct {
	seq              uint64
	fired, cancelled bool
}

// trackedAPI is newAPI recording every fixed-delay timer it arms, per
// lane in arming order. progDelays names 17 twice, and both share a
// lane, so lanes are indexed by the first position of their delay.
type trackedAPI struct {
	newAPI
	timers [][]*laneTimer
}

func laneOf(i int) int {
	for j, d := range progDelays {
		if d == progDelays[i] {
			return j
		}
	}
	panic("unreachable")
}

func (a trackedAPI) after(lane int, fn func()) func() bool {
	lt := &laneTimer{}
	cancel := a.newAPI.after(lane, func() {
		lt.fired = true
		fn()
	})
	lt.seq = a.e.seq // the seq the timer was just stamped with
	l := laneOf(lane)
	a.timers[l] = append(a.timers[l], lt)
	return func() bool {
		ok := cancel()
		lt.cancelled = lt.cancelled || ok
		return ok
	}
}

// laneRun is one run of a lane program (runProgram) with its
// fixed-delay events in lanes or, when viaHeap is set, sent through
// AfterTimer. counts holds the engine's pushed/popped counts after
// every op and after the final drain.
type laneRun struct {
	log    []progRecord
	counts [][2]uint64
	// trimmed lists, with the op that exposed them, the cancelled
	// timers a lane has dropped from its front by then: by the test's
	// own records, those cancelled with every timer armed before them
	// on their lane fired or cancelled.
	trimmed []trimmedTimer
	// queued[i] holds the seqs of the entries the event queue still
	// holds after op i, cancelled ones included.
	queued []map[uint64]bool
}

type trimmedTimer struct {
	seq uint64
	op  int
}

// each calls fn on every queued entry, in no particular order.
func (q *queue) each(fn func(event)) {
	for _, w := range [2]*wheel{&q.coarse, &q.fine} {
		if w.s == nil {
			continue
		}
		for j, word := range w.s.occ {
			for ; word != 0; word &= word - 1 {
				i := j<<6 + bits.TrailingZeros64(word)
				for k, t := w.s.tails[i], w.s.tails[i]; ; {
					k = q.pool[k].next
					fn(q.pool[k].event())
					if k == t {
						break
					}
				}
			}
		}
	}
	for _, ev := range q.far {
		fn(ev)
	}
}

func runLanes(data []byte, viaHeap bool) laneRun {
	e := NewEngine()
	timers := make([][]*laneTimer, len(progDelays))
	front := make([]int, len(progDelays))
	var r laneRun
	snap := func() {
		op := len(r.counts)
		pushed, popped, _ := e.Counts()
		r.counts = append(r.counts, [2]uint64{pushed, popped})
		for l, ts := range timers {
			for ; front[l] < len(ts) && (ts[front[l]].fired || ts[front[l]].cancelled); front[l]++ {
				if ts[front[l]].cancelled {
					r.trimmed = append(r.trimmed, trimmedTimer{ts[front[l]].seq, op})
				}
			}
		}
		in := map[uint64]bool{}
		e.events.each(func(ev event) { in[ev.seq] = true })
		r.queued = append(r.queued, in)
	}
	r.log = runProgram(trackedAPI{newEngineAPI(e, viaHeap), timers}, data, snap)
	snap()
	return r
}

// checkLaneCounts requires a program to behave identically with its
// fixed-delay events in lanes or in the event queue: the same log, the
// same pushed counts after every op and the same popped counts after
// the final drain. After each op the lanes may have popped more: the
// cancelled entries they trimmed from their fronts that the queue, in
// the AfterTimer run, still holds.
func checkLaneCounts(t *testing.T, data []byte) {
	t.Helper()
	lanes, heap := runLanes(data, false), runLanes(data, true)
	if d := diffLogs(lanes.log, heap.log); d != "" {
		t.Fatalf("lane vs AfterTimer: %s", d)
	}
	for i := range lanes.counts {
		early := 0
		for _, tt := range lanes.trimmed {
			if tt.op <= i && heap.queued[i][tt.seq] {
				early++
			}
		}
		l, h := lanes.counts[i], heap.counts[i]
		if l[0] != h[0] || l[1] != h[1]+uint64(early) {
			t.Fatalf("after op %d: lanes pushed/popped %v, AfterTimer %v with %d cancelled lane entries trimmed early",
				i, l, h, early)
		}
	}
	if last := len(lanes.counts) - 1; lanes.counts[last] != heap.counts[last] {
		t.Fatalf("after the drain: lanes pushed/popped %v, AfterTimer %v", lanes.counts[last], heap.counts[last])
	}
}

func TestLaneObsCountsMatchHeap(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		rng := NewRNG(seed)
		data := make([]byte, 2*(20+rng.Intn(200)))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		checkLaneCounts(t, data)
	}
}

func TestDeterminismWithTracking(t *testing.T) {
	run := func(track bool) []uint64 {
		if track {
			SetRNGAccounting(true)
			defer SetRNGAccounting(false)
		}
		e := NewEngine()
		rng := NewRNG(42)
		var out []uint64
		e.Ticker(Second, func() bool {
			out = append(out, rng.Uint64())
			return len(out) < 50
		})
		e.RunAll()
		return out
	}
	plain := run(false)
	tracked := run(true)
	for i := range plain {
		if plain[i] != tracked[i] {
			t.Fatalf("draw %d differs with tracking: %d vs %d", i, plain[i], tracked[i])
		}
	}
}

func TestRNGAccounting(t *testing.T) {
	ResetRNGDraws()
	rng := NewRNG(1)
	rng.Uint64()
	if RNGDraws() != 0 {
		t.Fatal("draws counted while accounting off")
	}
	SetRNGAccounting(true)
	defer SetRNGAccounting(false)
	rng.Uint64()
	rng.Float64()
	if got := RNGDraws(); got != 2 {
		t.Fatalf("draws = %d, want 2", got)
	}
	ResetRNGDraws()
	if RNGDraws() != 0 {
		t.Fatal("reset did not zero the counter")
	}
}
