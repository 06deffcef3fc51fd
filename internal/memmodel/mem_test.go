package memmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicAccounting(t *testing.T) {
	tr := NewTracker(Standard128GB)
	tr.Set("indexserve", 110*GB)
	tr.Set("hdfs", 4*GB)
	if tr.Used() != 114*GB {
		t.Fatalf("used = %d", tr.Used())
	}
	if tr.Free() != 14*GB {
		t.Fatalf("free = %d", tr.Free())
	}
	if tr.Usage("indexserve") != 110*GB {
		t.Fatal("usage wrong")
	}
	procs := tr.Procs()
	if len(procs) != 2 || procs[0] != "hdfs" {
		t.Fatalf("procs = %v", procs)
	}
}

func TestGrowClampsAtZero(t *testing.T) {
	tr := NewTracker(GB)
	tr.Set("p", 100)
	tr.Grow("p", -500)
	if tr.Usage("p") != 0 {
		t.Fatalf("usage = %d, want 0", tr.Usage("p"))
	}
	tr.Grow("p", 300)
	if tr.Usage("p") != 300 {
		t.Fatalf("usage = %d, want 300", tr.Usage("p"))
	}
}

func TestLimitCallback(t *testing.T) {
	tr := NewTracker(Standard128GB)
	var gotProc string
	var gotUsage, gotLimit int64
	tr.OnLimitExceeded = func(p string, u, l int64) { gotProc, gotUsage, gotLimit = p, u, l }
	tr.SetLimit("batch", 8*GB)
	tr.Set("batch", 7*GB)
	if gotProc != "" {
		t.Fatal("limit fired below the cap")
	}
	tr.Set("batch", 9*GB)
	if gotProc != "batch" || gotUsage != 9*GB || gotLimit != 8*GB {
		t.Fatalf("callback got (%s,%d,%d)", gotProc, gotUsage, gotLimit)
	}
}

func TestLimitAppliedRetroactively(t *testing.T) {
	tr := NewTracker(Standard128GB)
	fired := false
	tr.OnLimitExceeded = func(string, int64, int64) { fired = true }
	tr.Set("batch", 9*GB)
	tr.SetLimit("batch", 8*GB) // already over
	if !fired {
		t.Fatal("retroactive limit violation not reported")
	}
}

func TestLimitRemoval(t *testing.T) {
	tr := NewTracker(Standard128GB)
	fired := 0
	tr.OnLimitExceeded = func(string, int64, int64) { fired++ }
	tr.SetLimit("batch", 8*GB)
	tr.SetLimit("batch", 0)
	tr.Set("batch", 100*GB)
	if fired != 0 {
		t.Fatal("removed limit still firing")
	}
	if tr.Limit("batch") != 0 {
		t.Fatal("limit not removed")
	}
}

func TestPressureCallback(t *testing.T) {
	tr := NewTracker(100)
	var pressureFree int64 = -1
	tr.OnPressure = func(free int64) { pressureFree = free }
	tr.SetPressureThreshold(10)
	tr.Set("a", 85)
	if pressureFree != -1 {
		t.Fatal("pressure fired with 15 free > 10 threshold")
	}
	tr.Set("b", 8)
	if pressureFree != 7 {
		t.Fatalf("pressure free = %d, want 7", pressureFree)
	}
}

func TestRelease(t *testing.T) {
	tr := NewTracker(100)
	tr.Set("p", 60)
	tr.Release("p")
	if tr.Used() != 0 || len(tr.Procs()) != 0 {
		t.Fatal("release did not clear the process")
	}
}

func TestNegativeSetPanics(t *testing.T) {
	tr := NewTracker(100)
	defer func() {
		if recover() == nil {
			t.Fatal("negative footprint did not panic")
		}
	}()
	tr.Set("p", -1)
}

func TestConservationProperty(t *testing.T) {
	// Property: Used is always the sum of individual usages and
	// Free + Used == Total.
	f := func(sizes []uint32) bool {
		tr := NewTracker(int64(1) << 40)
		var want int64
		for i, s := range sizes {
			name := string(rune('a' + i%26))
			prev := tr.Usage(name)
			tr.Set(name, int64(s))
			want += int64(s) - prev
		}
		return tr.Used() == want && tr.Free()+tr.Used() == tr.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
