package cpumodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllCores(t *testing.T) {
	if AllCores(0) != 0 {
		t.Fatal("AllCores(0) not empty")
	}
	if AllCores(48).Count() != 48 {
		t.Fatalf("AllCores(48) has %d cores", AllCores(48).Count())
	}
	if AllCores(64) != ^CPUSet(0) {
		t.Fatal("AllCores(64) not full")
	}
	for i := 0; i < 48; i++ {
		if !AllCores(48).Has(i) {
			t.Fatalf("AllCores(48) missing core %d", i)
		}
	}
	if AllCores(48).Has(48) {
		t.Fatal("AllCores(48) contains core 48")
	}
}

func TestAllCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AllCores(65) did not panic")
		}
	}()
	AllCores(65)
}

func TestTopCores(t *testing.T) {
	s := TopCores(48, 8)
	if s.Count() != 8 {
		t.Fatalf("TopCores(48,8) has %d cores", s.Count())
	}
	if s.Lowest() != 40 || s.Highest() != 47 {
		t.Fatalf("TopCores(48,8) = %v", s)
	}
	if TopCores(48, 0) != 0 {
		t.Fatal("TopCores(48,0) not empty")
	}
	if TopCores(48, 100) != AllCores(48) {
		t.Fatal("TopCores over-clamp wrong")
	}
	if TopCores(48, -3) != 0 {
		t.Fatal("TopCores negative not clamped to empty")
	}
}

func TestCPUSetBasicOps(t *testing.T) {
	var s CPUSet
	s = s.With(3).With(40).With(3)
	if s.Count() != 2 || !s.Has(3) || !s.Has(40) {
		t.Fatalf("set ops wrong: %v", s)
	}
	s = s.Without(3)
	if s.Has(3) || s.Count() != 1 {
		t.Fatalf("Without wrong: %v", s)
	}
	if s.Lowest() != 40 || s.Highest() != 40 {
		t.Fatal("Lowest/Highest wrong")
	}
	if CPUSet(0).Lowest() != -1 || CPUSet(0).Highest() != -1 {
		t.Fatal("empty set extremes not -1")
	}
	if !CPUSet(0).IsEmpty() {
		t.Fatal("IsEmpty wrong")
	}
	if s.Has(-1) || s.Has(64) {
		t.Fatal("out-of-range Has not false")
	}
}

func TestCPUSetForEachOrder(t *testing.T) {
	s := CPUSet(0).With(5).With(1).With(47)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 47 {
		t.Fatalf("ForEach order: %v", got)
	}
}

func TestCPUSetString(t *testing.T) {
	cases := map[CPUSet]string{
		0:                         "{}",
		AllCores(4):               "0-3",
		CPUSet(0).With(0).With(2): "0,2",
		CPUSet(0).With(1).With(2).With(5).With(6).With(7): "1-2,5-7",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%b.String() = %q, want %q", uint64(s), s.String(), want)
		}
	}
}

func TestCPUSetAlgebraProperties(t *testing.T) {
	// With/Without round-trip and count consistency.
	f := func(raw uint64, i uint8) bool {
		s := CPUSet(raw)
		c := int(i % 64)
		w := s.With(c)
		if !w.Has(c) {
			return false
		}
		wo := w.Without(c)
		if wo.Has(c) {
			return false
		}
		// Count changes by exactly 0/1.
		if s.Has(c) {
			return w.Count() == s.Count() && wo.Count() == s.Count()-1
		}
		return w.Count() == s.Count()+1 && wo.Count() == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCPUSetCountMatchesForEach(t *testing.T) {
	f := func(raw uint64) bool {
		s := CPUSet(raw)
		n := 0
		s.ForEach(func(int) { n++ })
		return n == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestTopCoresDisjointFromBottom(t *testing.T) {
	f := func(k uint8) bool {
		kk := int(k % 49)
		top := TopCores(48, kk)
		bottom := AllCores(48 - kk)
		return top&bottom == 0 && top|bottom == AllCores(48) && top.Count() == kk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
