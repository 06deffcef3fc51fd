package diskmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"perfiso/internal/sim"
)

func TestSingleRequestLatency(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{
		Name: "test", Drives: 1, SeekTime: sim.Millisecond,
		PerDriveBandwidth: 1e6, FixedOverhead: 0,
	})
	done := false
	v.Submit(&Request{Proc: "p", Kind: OpRead, Bytes: 1000, Sequential: false,
		OnComplete: func() { done = true }})
	eng.RunAll()
	if !done {
		t.Fatal("request never completed")
	}
	// 1ms seek + 1000B/1MBps = 1ms transfer = 2ms.
	if eng.Now() != sim.Time(2*sim.Millisecond) {
		t.Fatalf("completion at %v, want 2ms", eng.Now())
	}
	if v.Stats("p").Ops != 1 || v.Stats("p").ReadOps != 1 {
		t.Fatalf("stats = %+v", v.Stats("p"))
	}
}

func TestSequentialSkipsSeek(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{
		Name: "test", Drives: 1, SeekTime: 8 * sim.Millisecond,
		PerDriveBandwidth: 1e6,
	})
	v.Submit(&Request{Proc: "p", Kind: OpWrite, Bytes: 1000, Sequential: true})
	eng.RunAll()
	if eng.Now() != sim.Time(sim.Millisecond) {
		t.Fatalf("sequential op took %v, want 1ms (no seek)", eng.Now())
	}
}

func TestStripeParallelism(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{
		Name: "test", Drives: 4, PerDriveBandwidth: 1e6,
	})
	for i := 0; i < 8; i++ {
		v.Submit(&Request{Proc: "p", Kind: OpRead, Bytes: 1000, Sequential: true})
	}
	eng.RunAll()
	// 8 × 1ms ops on 4 drives = 2ms total.
	if eng.Now() != sim.Time(2*sim.Millisecond) {
		t.Fatalf("8 ops on 4 drives took %v, want 2ms", eng.Now())
	}
	if v.TotalOps != 8 {
		t.Fatalf("TotalOps = %d", v.TotalOps)
	}
}

func TestPriorityOrdering(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{Name: "test", Drives: 1, PerDriveBandwidth: 1e6})
	v.SetPriority("hi", 10)
	v.SetPriority("lo", 0)
	var order []string
	// First submission occupies the drive; then one lo and one hi queue.
	v.Submit(&Request{Proc: "lo", Bytes: 1000, Sequential: true,
		OnComplete: func() { order = append(order, "first") }})
	v.Submit(&Request{Proc: "lo", Bytes: 1000, Sequential: true,
		OnComplete: func() { order = append(order, "lo") }})
	v.Submit(&Request{Proc: "hi", Bytes: 1000, Sequential: true,
		OnComplete: func() { order = append(order, "hi") }})
	eng.RunAll()
	if len(order) != 3 || order[1] != "hi" || order[2] != "lo" {
		t.Fatalf("service order = %v, want hi before lo", order)
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{Name: "test", Drives: 1, PerDriveBandwidth: 1e6})
	var order []int
	v.Submit(&Request{Proc: "p", Bytes: 1000, Sequential: true}) // occupies drive
	for i := 0; i < 5; i++ {
		i := i
		v.Submit(&Request{Proc: "p", Bytes: 1000, Sequential: true,
			OnComplete: func() { order = append(order, i) }})
	}
	eng.RunAll()
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestBandwidthCap(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{Name: "test", Drives: 4, PerDriveBandwidth: 100e6})
	// Cap at 10 MB/s; submit 20 MB over 1 MB requests as fast as possible.
	v.SetRateLimit("hdfs", 10e6, 0)
	completed := 0
	var submit func()
	submit = func() {
		if completed >= 20 {
			return
		}
		v.Submit(&Request{Proc: "hdfs", Kind: OpWrite, Bytes: 1e6, Sequential: true,
			OnComplete: func() { completed++; submit() }})
	}
	for i := 0; i < 4; i++ {
		submit()
	}
	eng.Run(sim.Time(1 * sim.Second))
	// ≈10 MB admitted in the first second (+1s of initial burst tokens).
	got := float64(v.Stats("hdfs").Bytes)
	if got > 21e6 {
		t.Fatalf("capped process moved %.1f MB in 1s, want ≤ ~20MB (10MB/s + burst)", got/1e6)
	}
	if got < 5e6 {
		t.Fatalf("capped process starved: %.1f MB", got/1e6)
	}
}

func TestOpsCap(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{Name: "test", Drives: 4, PerDriveBandwidth: 1e9})
	v.SetRateLimit("p", 0, 20) // 20 IOPS
	for i := 0; i < 200; i++ {
		v.Submit(&Request{Proc: "p", Kind: OpRead, Bytes: 8192, Sequential: true})
	}
	eng.Run(sim.Time(2 * sim.Second))
	ops := v.Stats("p").Ops
	// 2s × 20 IOPS + up to 1s of burst tokens = ≤ ~60.
	if ops > 65 {
		t.Fatalf("IOPS cap leaked: %d ops in 2s at 20 IOPS", ops)
	}
	if ops < 30 {
		t.Fatalf("IOPS cap starved: %d ops", ops)
	}
}

func TestUncappedProcUnaffectedByOthersCap(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{Name: "test", Drives: 1, PerDriveBandwidth: 1e8})
	v.SetRateLimit("slow", 1e3, 0)
	done := false
	v.Submit(&Request{Proc: "fast", Bytes: 1e5, Sequential: true, OnComplete: func() { done = true }})
	v.Submit(&Request{Proc: "slow", Bytes: 1e6, Sequential: true})
	eng.Run(sim.Time(10 * sim.Millisecond))
	if !done {
		t.Fatal("uncapped request delayed by another process's cap")
	}
}

func TestQueueTimeAccounting(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{Name: "test", Drives: 1, PerDriveBandwidth: 1e6})
	v.Submit(&Request{Proc: "p", Bytes: 1000, Sequential: true})
	v.Submit(&Request{Proc: "p", Bytes: 1000, Sequential: true})
	eng.RunAll()
	// First waits 1ms (service), second waits 2ms → total 3ms.
	if got := v.Stats("p").QueueTime; got != 3*sim.Millisecond {
		t.Fatalf("queue time = %v, want 3ms", got)
	}
	if got := v.Stats("p").Ops; got != 2 || v.TotalOps != 2 {
		t.Fatalf("ops = %d (volume %d), want 2", got, v.TotalOps)
	}
}

func TestDefaultConfigsSane(t *testing.T) {
	eng := sim.NewEngine()
	ssd := NewVolume(eng, SSDStripeConfig())
	hdd := NewVolume(eng, HDDStripeConfig())
	// A random 64 KB read: SSD must be far faster than HDD.
	var ssdDone, hddDone sim.Time
	ssd.Submit(&Request{Proc: "p", Kind: OpRead, Bytes: 65536,
		OnComplete: func() { ssdDone = eng.Now() }})
	hdd.Submit(&Request{Proc: "p", Kind: OpRead, Bytes: 65536,
		OnComplete: func() { hddDone = eng.Now() }})
	eng.RunAll()
	if ssdDone == 0 || hddDone == 0 {
		t.Fatal("requests incomplete")
	}
	if float64(hddDone)/float64(ssdDone) < 10 {
		t.Fatalf("HDD (%v) should be ≫ slower than SSD (%v) for random reads", hddDone, ssdDone)
	}
	if ssdDone > sim.Time(sim.Millisecond) {
		t.Fatalf("SSD random 64K read = %v, want sub-millisecond", ssdDone)
	}
}

func TestUtilizationAndQueueDepth(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{Name: "t", Drives: 2, PerDriveBandwidth: 1e6})
	for i := 0; i < 5; i++ {
		v.Submit(&Request{Proc: "p", Bytes: 1000, Sequential: true})
	}
	if math.Abs(v.Utilization()-1.0) > 1e-9 {
		t.Fatalf("utilization = %v, want 1.0", v.Utilization())
	}
	if v.QueueDepth() != 3 {
		t.Fatalf("queue depth = %d, want 3", v.QueueDepth())
	}
	eng.RunAll()
	if v.Utilization() != 0 || v.QueueDepth() != 0 {
		t.Fatal("volume not drained")
	}
}

func TestSubmitValidation(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, VolumeConfig{Name: "t", Drives: 1, PerDriveBandwidth: 1e6})
	defer func() {
		if recover() == nil {
			t.Fatal("zero-byte request did not panic")
		}
	}()
	v.Submit(&Request{Proc: "p", Bytes: 0})
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("OpKind strings wrong")
	}
}

func TestVolumeConservationProperty(t *testing.T) {
	// Every submitted request eventually completes exactly once, and
	// per-process accounting sums to the volume totals — under any mix
	// of rate limits and priorities.
	check := func(seed uint64, n uint8) bool {
		eng := sim.NewEngine()
		v := NewVolume(eng, HDDStripeConfig())
		rng := sim.NewRNG(seed)
		procs := []string{"a", "b", "c"}
		if rng.Float64() < 0.5 {
			v.SetRateLimit("a", float64(rng.IntBetween(1, 50))*1e6, 0)
		}
		if rng.Float64() < 0.5 {
			v.SetPriority("b", rng.IntBetween(0, 7))
		}
		count := int(n%100) + 20
		completed := 0
		wantBytes := map[string]int64{}
		for i := 0; i < count; i++ {
			proc := procs[rng.Intn(len(procs))]
			bytes := int64(rng.IntBetween(1, 64)) << 10
			wantBytes[proc] += bytes
			kind := OpWrite
			if rng.Float64() < 0.4 {
				kind = OpRead
			}
			v.Submit(&Request{
				Proc: proc, Kind: kind, Bytes: bytes,
				Sequential: rng.Float64() < 0.5,
				OnComplete: func() { completed++ },
			})
		}
		eng.RunAll()
		if completed != count {
			t.Logf("seed=%d: completed %d/%d", seed, completed, count)
			return false
		}
		for _, proc := range procs {
			if v.Stats(proc).Bytes != wantBytes[proc] {
				t.Logf("seed=%d: proc %s bytes %d != %d", seed, proc, v.Stats(proc).Bytes, wantBytes[proc])
				return false
			}
		}
		return v.QueueDepth() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestThrottledGateDoesNotAllocate holds a rate-limited process's gated
// queue at a steady depth, submitting each completed request again, and
// checks that after a warm-up the volume allocates nothing per admitted
// request: the gated queue stops growing once it holds that depth, and
// the gate's retry is bound once. Each measured run admits about 128
// requests, so a queue that reallocated every few dozen would show.
func TestThrottledGateDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVolume(eng, HDDStripeConfig())
	v.SetRateLimit("bully", 1<<20, 0) // 1 MiB/s: 128 8 KiB requests a second
	for i := 0; i < 16; i++ {
		r := &Request{Proc: "bully", Kind: OpWrite, Bytes: 8 << 10, Sequential: true}
		r.OnComplete = func() { v.Submit(r) }
		v.Submit(r)
	}
	eng.Run(sim.Time(2 * sim.Second))
	before, start := v.Stats("bully").Ops, eng.Now()
	allocs := testing.AllocsPerRun(10, func() { eng.Run(eng.Now().Add(sim.Second)) })
	if allocs != 0 {
		t.Fatalf("%v allocations per second of throttled traffic, want 0", allocs)
	}
	// The gate, not the drives, must set the pace: 128 requests a
	// second, plus at most the one-second burst.
	ops, secs := v.Stats("bully").Ops-before, eng.Now().Sub(start).Seconds()
	if rate := float64(ops) / secs; rate < 100 || rate > 160 {
		t.Fatalf("%.0f requests a second, want about 128: the gate is not holding the queue", rate)
	}
}
