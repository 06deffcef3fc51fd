package sim

import "testing"

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

// laneCounts runs a lane program (runProgram) and returns its log and
// the engine's pushed/popped counts after every op and at the end.
// viaHeap sends the fixed-delay events through AfterTimer instead of
// lanes.
func laneCounts(data []byte, viaHeap bool) ([]progRecord, [][2]uint64) {
	e := NewEngine()
	var counts [][2]uint64
	snap := func() {
		pushed, popped, _ := e.Counts()
		counts = append(counts, [2]uint64{pushed, popped})
	}
	log := runProgram(newEngineAPI(e, viaHeap), data, snap)
	snap()
	return log, counts
}

// checkLaneCounts requires a program to behave identically with its
// fixed-delay events in lanes or in the event queue: the same log, and
// the same pushed/popped counts after every op — lanes discard a
// cancelled entry exactly when the queue would have.
func checkLaneCounts(t *testing.T, data []byte) {
	t.Helper()
	laneLog, viaLane := laneCounts(data, false)
	heapLog, viaHeap := laneCounts(data, true)
	if d := diffLogs(laneLog, heapLog); d != "" {
		t.Fatalf("lane vs AfterTimer: %s", d)
	}
	for i := range viaLane {
		if viaLane[i] != viaHeap[i] {
			t.Fatalf("after op %d: lanes pushed/popped %v, AfterTimer %v", i, viaLane[i], viaHeap[i])
		}
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
