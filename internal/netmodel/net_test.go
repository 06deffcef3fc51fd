package netmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perfiso/internal/sim"
)

func nic(eng *sim.Engine) *NIC {
	return NewNIC(eng, NICConfig{Bandwidth: 1e6, WireLatency: 0}) // 1 MB/s for easy math
}

func TestSinglePacketTransmit(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	sent := false
	n.Send(&Packet{Proc: "p", Class: PriorityHigh, Bytes: 1000, OnSent: func() { sent = true }})
	eng.RunAll()
	if !sent {
		t.Fatal("packet not sent")
	}
	if eng.Now() != sim.Time(sim.Millisecond) {
		t.Fatalf("tx time = %v, want 1ms", eng.Now())
	}
	if n.ClassStats(PriorityHigh).Bytes != 1000 {
		t.Fatalf("class bytes = %d", n.ClassStats(PriorityHigh).Bytes)
	}
}

func TestStrictPriority(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	var order []string
	n.Send(&Packet{Proc: "x", Class: PriorityLow, Bytes: 1000,
		OnSent: func() { order = append(order, "first") }})
	// While the first transmits, queue one low then one high.
	n.Send(&Packet{Proc: "batch", Class: PriorityLow, Bytes: 1000,
		OnSent: func() { order = append(order, "low") }})
	n.Send(&Packet{Proc: "svc", Class: PriorityHigh, Bytes: 1000,
		OnSent: func() { order = append(order, "high") }})
	eng.RunAll()
	if len(order) != 3 || order[1] != "high" || order[2] != "low" {
		t.Fatalf("order = %v, want high before low", order)
	}
}

func TestLowPriorityThrottle(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	n.SetLowPriorityRate(100e3) // 100 KB/s
	for i := 0; i < 50; i++ {
		n.Send(&Packet{Proc: "batch", Class: PriorityLow, Bytes: 10e3})
	}
	eng.Run(sim.Time(1 * sim.Second))
	got := n.ClassStats(PriorityLow).Bytes
	// ≤ 100 KB/s + 100ms burst allowance.
	if got > 120e3 {
		t.Fatalf("throttled class sent %d bytes in 1s at 100KB/s", got)
	}
	if got < 50e3 {
		t.Fatalf("throttled class starved: %d bytes", got)
	}
}

func TestHighUnaffectedByLowThrottle(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	n.SetLowPriorityRate(1) // essentially frozen
	for i := 0; i < 10; i++ {
		n.Send(&Packet{Proc: "batch", Class: PriorityLow, Bytes: 10e3})
	}
	sent := false
	n.Send(&Packet{Proc: "svc", Class: PriorityHigh, Bytes: 1000, OnSent: func() { sent = true }})
	eng.Run(sim.Time(10 * sim.Millisecond))
	if !sent {
		t.Fatal("high-priority packet blocked behind throttled low traffic")
	}
}

func TestThrottleRemoval(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	n.SetLowPriorityRate(1)
	n.Send(&Packet{Proc: "batch", Class: PriorityLow, Bytes: 100e3})
	eng.Run(sim.Time(100 * sim.Millisecond))
	if n.ClassStats(PriorityLow).Bytes != 0 {
		t.Fatal("packet leaked through a ~zero rate")
	}
	n.SetLowPriorityRate(0)
	// Kick transmission via another packet.
	n.Send(&Packet{Proc: "batch", Class: PriorityLow, Bytes: 100e3})
	eng.RunAll()
	if n.ClassStats(PriorityLow).Bytes != 200e3 {
		t.Fatalf("after uncapping, sent = %d, want 200e3", n.ClassStats(PriorityLow).Bytes)
	}
}

func TestQueueDelayCounters(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	n.Send(&Packet{Proc: "p", Class: PriorityHigh, Bytes: 1000})
	n.Send(&Packet{Proc: "p", Class: PriorityHigh, Bytes: 1000})
	eng.RunAll()
	// The first packet goes out at once; the second waits out the
	// first's 1 ms on the wire.
	want := ClassStats{Packets: 2, Bytes: 2000, QueueTime: sim.Millisecond, MaxQueueTime: sim.Millisecond}
	if got := n.ClassStats(PriorityHigh); got != want {
		t.Fatalf("high-priority stats = %+v, want %+v", got, want)
	}
	if got := n.ClassStats(PriorityLow); got != (ClassStats{}) {
		t.Fatalf("low-priority stats = %+v, want none", got)
	}
}

func TestQueueDepth(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	for i := 0; i < 3; i++ {
		n.Send(&Packet{Proc: "p", Class: PriorityLow, Bytes: 1000})
	}
	if n.QueueDepth() != 2 { // one is in flight
		t.Fatalf("queue depth = %d, want 2", n.QueueDepth())
	}
	eng.RunAll()
	if n.QueueDepth() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestSendValidation(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-byte packet did not panic")
		}
	}()
	n.Send(&Packet{Proc: "p", Bytes: 0})
}

func TestTenGbEConfig(t *testing.T) {
	cfg := TenGbE()
	if cfg.Bandwidth != 1.25e9 {
		t.Fatalf("10GbE bandwidth = %v", cfg.Bandwidth)
	}
}

func TestPriorityOrderingProperty(t *testing.T) {
	// Whatever mix of packets is enqueued while the NIC is busy, no
	// low-priority packet may transmit while a high-priority packet is
	// waiting.
	check := func(seed uint64, n uint8) bool {
		eng := sim.NewEngine()
		nic := NewNIC(eng, TenGbE())
		rng := sim.NewRNG(seed)
		var order []PriorityClass
		count := int(n%40) + 10
		// The first packet is always high-priority, so no program
		// passes on an empty high-priority counter.
		var highs int64
		for i := 0; i < count; i++ {
			class := PriorityLow
			if rng.Float64() < 0.5 || i == 0 {
				class = PriorityHigh
				highs++
			}
			eng.At(sim.Time(rng.IntBetween(0, 1000))*sim.Time(sim.Microsecond), func() {
				nic.Send(&Packet{
					Proc:  "p",
					Class: class,
					Bytes: int64(rng.IntBetween(1, 64)) << 10,
					OnSent: func() {
						order = append(order, class)
					},
				})
			})
		}
		eng.RunAll()
		if len(order) != count {
			return false
		}
		// No high-priority packet may wait much longer than the
		// largest packet's transmit time (it never waits behind the
		// low queue), and every one of them must be counted.
		hs := nic.ClassStats(PriorityHigh)
		if hs.Packets != highs {
			t.Logf("seed=%d: %d high-priority packets counted, %d sent", seed, hs.Packets, highs)
			return false
		}
		if hs.MaxQueueTime > 2*sim.Millisecond {
			t.Logf("seed=%d: high-priority max queueing delay %v", seed, hs.MaxQueueTime)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestNICByteConservation(t *testing.T) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, TenGbE())
	var wantHigh, wantLow int64
	r := sim.NewRNG(4)
	for i := 0; i < 200; i++ {
		bytes := int64(r.IntBetween(1, 128)) << 10
		class := PriorityLow
		if i%3 == 0 {
			class = PriorityHigh
		}
		if class == PriorityHigh {
			wantHigh += bytes
		} else {
			wantLow += bytes
		}
		nic.Send(&Packet{Proc: "p", Class: class, Bytes: bytes})
	}
	eng.RunAll()
	if nic.ClassStats(PriorityHigh).Bytes != wantHigh || nic.ClassStats(PriorityLow).Bytes != wantLow {
		t.Fatalf("byte conservation: got %d/%d want %d/%d",
			nic.ClassStats(PriorityHigh).Bytes, nic.ClassStats(PriorityLow).Bytes, wantHigh, wantLow)
	}
}

// TestThrottledLowQueueDoesNotAllocate holds the throttled low class at
// a steady queue depth, sending each packet again once it is out, and
// checks that after a warm-up the NIC allocates nothing per packet: the
// low queue stops growing once it holds that depth, and the gate's
// retry is bound once. Each measured run sends about ten packets
// through the gate.
func TestThrottledLowQueueDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	n := nic(eng)
	n.SetLowPriorityRate(100e3) // 100 KB/s: ten 10 KB packets a second
	for i := 0; i < 16; i++ {
		p := &Packet{Proc: "batch", Class: PriorityLow, Bytes: 10e3}
		p.OnSent = func() { n.Send(p) }
		n.Send(p)
	}
	eng.Run(sim.Time(2 * sim.Second))
	before, start := n.ClassStats(PriorityLow).Packets, eng.Now()
	allocs := testing.AllocsPerRun(10, func() { eng.Run(eng.Now().Add(sim.Second)) })
	if allocs != 0 {
		t.Fatalf("%v allocations per second of throttled traffic, want 0", allocs)
	}
	sent, secs := n.ClassStats(PriorityLow).Packets-before, eng.Now().Sub(start).Seconds()
	if rate := float64(sent) / secs; rate < 8 || rate > 12 {
		t.Fatalf("%.1f packets a second, want about 10: the gate is not holding the queue", rate)
	}
	if n.QueueDepth() < 10 {
		t.Fatalf("queue depth %d, want the low class held at about 16", n.QueueDepth())
	}
}
