package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"perfiso/internal/sim"
)

func TestCPUAccountingShares(t *testing.T) {
	a := NewCPUAccounting(48, 0)
	// One second elapses; 10 core-seconds to primary, 20 to secondary,
	// 1 to OS, 17 idle.
	a.Accumulate(ClassPrimary, 10*sim.Second)
	a.Accumulate(ClassSecondary, 20*sim.Second)
	a.Accumulate(ClassOS, 1*sim.Second)
	a.Accumulate(ClassIdle, 17*sim.Second)
	now := sim.Time(sim.Second)
	b := a.Breakdown(now)
	if math.Abs(b.PrimaryPct-10.0/48*100) > 0.01 {
		t.Fatalf("primary = %v", b.PrimaryPct)
	}
	if math.Abs(b.UsedPct()-(31.0/48*100)) > 0.01 {
		t.Fatalf("used = %v", b.UsedPct())
	}
	if a.Capacity(now) != 48*sim.Second {
		t.Fatalf("capacity = %v", a.Capacity(now))
	}
}

func TestCPUAccountingConservation(t *testing.T) {
	// Property: however time is split across classes, the total equals
	// the sum of parts and utilization stays in [0,1] when parts fit
	// within capacity.
	f := func(p, s, o uint16) bool {
		a := NewCPUAccounting(4, 0)
		total := sim.Duration(p) + sim.Duration(s) + sim.Duration(o)
		a.Accumulate(ClassPrimary, sim.Duration(p))
		a.Accumulate(ClassSecondary, sim.Duration(s))
		a.Accumulate(ClassOS, sim.Duration(o))
		if a.Total() != total {
			return false
		}
		now := sim.Time(total) // capacity = 4*total >= total
		for _, c := range []Class{ClassPrimary, ClassSecondary, ClassOS} {
			u := a.Utilization(c, now)
			if total > 0 && (u < 0 || u > 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCPUAccountingNegativePanics(t *testing.T) {
	a := NewCPUAccounting(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative accumulation did not panic")
		}
	}()
	a.Accumulate(ClassIdle, -1)
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassIdle: "idle", ClassPrimary: "primary",
		ClassSecondary: "secondary", ClassOS: "os",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class produced empty string")
	}
}

func TestMovingAverage(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Value() != 0 {
		t.Fatal("empty moving average not 0")
	}
	m.Add(3)
	m.Add(6)
	if m.Value() != 4.5 {
		t.Fatalf("partial window avg = %v, want 4.5", m.Value())
	}
	m.Add(9)
	if m.Value() != 6 {
		t.Fatalf("full window avg = %v, want 6", m.Value())
	}
	m.Add(12) // evicts 3
	if m.Value() != 9 {
		t.Fatalf("rolled avg = %v, want 9", m.Value())
	}
	if m.Filled() != 3 {
		t.Fatalf("filled = %d, want 3", m.Filled())
	}
}

func TestMovingAverageProperty(t *testing.T) {
	// Property: the moving average always lies within [min, max] of the
	// last `size` samples.
	f := func(vals []float64, sz uint8) bool {
		size := int(sz%16) + 1
		m := NewMovingAverage(size)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Keep magnitudes in a realistic range: the running-sum
			// implementation is not meant for ±1e308 inputs.
			v = math.Mod(v, 1e9)
			vals[i] = v
			m.Add(v)
			lo, hi := math.Inf(1), math.Inf(-1)
			start := i - size + 1
			if start < 0 {
				start = 0
			}
			for _, w := range vals[start : i+1] {
				lo = math.Min(lo, w)
				hi = math.Max(hi, w)
			}
			if m.Value() < lo-1e-6*math.Abs(lo)-1e-9 || m.Value() > hi+1e-6*math.Abs(hi)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("dropped", 2)
	c.Inc("dropped", 3)
	c.Inc("completed", 1)
	if c.Get("dropped") != 5 || c.Get("completed") != 1 || c.Get("missing") != 0 {
		t.Fatal("counter arithmetic wrong")
	}
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "completed" || labels[1] != "dropped" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	if ts.Mean() != 0 || ts.Max() != 0 || ts.Min() != 0 {
		t.Fatal("empty series stats not 0")
	}
	ts.Add(0, 10)
	ts.Add(sim.Time(sim.Second), 30)
	ts.Add(sim.Time(2*sim.Second), 20)
	if ts.Len() != 3 || ts.Mean() != 20 || ts.Max() != 30 || ts.Min() != 10 {
		t.Fatalf("series stats wrong: mean=%v max=%v min=%v", ts.Mean(), ts.Max(), ts.Min())
	}
}
