package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	n := e.Run(20)
	if n != 2 || fired != 2 {
		t.Fatalf("Run(20) dispatched %d events, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.Run(Time(Second))
	if e.Now() != Time(Second) {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(Microsecond, recurse)
		}
	}
	e.After(Microsecond, recurse)
	e.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != Time(100*Microsecond) {
		t.Fatalf("clock = %v, want 100us", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++; e.Stop() })
	e.At(2, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt the loop)", fired)
	}
	// A later RunAll picks the remaining event back up.
	e.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}

	// A stopped Run leaves the clock at the stopping event, not at
	// until, so the event still queued before until runs on time.
	e = NewEngine()
	ranAt := Time(-1)
	e.At(1, e.Stop)
	e.At(5, func() { ranAt = e.Now() })
	e.Run(10)
	if e.Now() != 1 || e.Pending() != 1 {
		t.Fatalf("after a stopped Run(10): now %v, pending %d; want t=1 and 1", e.Now(), e.Pending())
	}
	e.Run(20)
	if ranAt != 5 || e.Now() != 20 {
		t.Fatalf("resumed Run(20): event ran at %v, clock %v; want 5 and 20", ranAt, e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Ticker(Duration(10*Millisecond), func() bool {
		ticks++
		return ticks < 5
	})
	e.RunAll()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != Time(50*Millisecond) {
		t.Fatalf("clock = %v, want 50ms", e.Now())
	}
}

func TestEventHeapProperty(t *testing.T) {
	// Property: regardless of the insertion order, dispatch is in
	// non-decreasing timestamp order.
	f := func(stamps []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, s := range stamps {
			at := Time(s)
			e.At(at, func() { seen = append(seen, at) })
		}
		e.RunAll()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(stamps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds produced identical first values")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split(1)
	s2 := r.Split(2)
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("split streams identical")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("exponential mean = %v, want ~5.0", mean)
	}
}

func TestRNGLogNormalMedian(t *testing.T) {
	r := NewRNG(13)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(4.0, 0.5)
	}
	// Median via counting values below 4.
	below := 0
	for _, v := range vals {
		if v < 4.0 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("lognormal median off: %.3f of mass below the median parameter", frac)
	}
}

func TestRNGIntBetween(t *testing.T) {
	r := NewRNG(17)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntBetween(4, 15)
		if v < 4 || v > 15 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 12 {
		t.Fatalf("IntBetween did not cover the range: %d distinct values", len(seen))
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(19)
	p := r.Perm(48)
	seen := make([]bool, 48)
	for _, v := range p {
		if v < 0 || v >= 48 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestDurationHelpers(t *testing.T) {
	if (2 * Millisecond).Milliseconds() != 2.0 {
		t.Fatal("Milliseconds conversion wrong")
	}
	tm := Time(0).Add(3 * Second)
	if tm.Seconds() != 3.0 {
		t.Fatal("Add/Seconds wrong")
	}
	if tm.Sub(Time(Second)) != 2*Second {
		t.Fatal("Sub wrong")
	}
}
