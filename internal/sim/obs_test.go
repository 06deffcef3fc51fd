package sim

import (
	"testing"

	"perfiso/internal/obs"
)

func TestEngineTracker(t *testing.T) {
	rec := obs.NewRecording()
	e := NewEngine()
	e.SetTracker(rec)
	e.At(Time(10*Second), func() {})
	e.At(Time(5*Second), func() {})
	e.After(20*Second, func() {})
	e.RunAll()

	s := rec.Snapshot()
	if s.SimEventsPushed != 3 || s.SimEventsPopped != 3 {
		t.Fatalf("pushed/popped = %d/%d, want 3/3", s.SimEventsPushed, s.SimEventsPopped)
	}
	if s.SimMaxHeapDepth < 2 {
		t.Fatalf("max heap depth = %d, want >= 2", s.SimMaxHeapDepth)
	}
	if s.SimSeconds != 20 {
		t.Fatalf("sim seconds = %v, want 20", s.SimSeconds)
	}
}

// laneCounts runs a lane program (runProgram) on a recorded engine and
// returns its log and the obs pushed/popped counts after every op and
// at the end. viaHeap sends the fixed-delay events through AfterTimer
// instead of lanes.
func laneCounts(data []byte, viaHeap bool) ([]progRecord, [][2]uint64) {
	rec := obs.NewRecording()
	e := NewEngine()
	e.SetTracker(rec)
	var counts [][2]uint64
	snap := func() {
		s := rec.Snapshot()
		counts = append(counts, [2]uint64{s.SimEventsPushed, s.SimEventsPopped})
	}
	log := runProgram(newEngineAPI(e, viaHeap), data, snap)
	snap()
	return log, counts
}

// checkLaneCounts requires a program to behave identically with its
// fixed-delay events in lanes or in the event queue: the same log, and
// the same obs pushed/popped counts after every op — lanes discard a
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

func TestEngineTrackerRun(t *testing.T) {
	rec := obs.NewRecording()
	e := NewEngine()
	e.SetTracker(rec)
	e.At(Time(2*Second), func() {})
	e.Run(Time(30 * Second))
	if got := rec.Snapshot().SimSeconds; got != 30 {
		t.Fatalf("sim seconds = %v, want 30 (Run advances to until)", got)
	}
	// Disabling the tracker freezes the counters.
	e.SetTracker(nil)
	e.After(Second, func() {})
	e.RunAll()
	if got := rec.Snapshot().SimEventsPushed; got != 1 {
		t.Fatalf("pushed = %d, want 1 after tracker removed", got)
	}
}

func TestDeterminismWithTracking(t *testing.T) {
	run := func(track bool) []uint64 {
		if track {
			SetRNGAccounting(true)
			defer SetRNGAccounting(false)
		}
		e := NewEngine()
		if track {
			e.SetTracker(obs.NewRecording())
		}
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
