package workload

import (
	"testing"

	"perfiso/internal/netmodel"
	"perfiso/internal/sim"
)

func TestNetFlowOfferedRate(t *testing.T) {
	eng := sim.NewEngine()
	nic := netmodel.NewNIC(eng, netmodel.TenGbE())
	f := NewNetFlow(eng, nic, NetFlowConfig{
		ProcName:    "shuffle",
		Class:       netmodel.PriorityLow,
		PacketBytes: 64 << 10,
		TargetRate:  100 << 20, // 100 MB/s on a ~1.25 GB/s link
		Seed:        1,
	})
	f.Start()
	eng.Run(sim.Time(5 * sim.Second))
	got := float64(f.DeliveredBytes()) / 5
	if got < 80<<20 || got > 120<<20 {
		t.Fatalf("delivered rate = %.1f MB/s, want ≈100", got/(1<<20))
	}
}

func TestNetFlowStops(t *testing.T) {
	eng := sim.NewEngine()
	nic := netmodel.NewNIC(eng, netmodel.TenGbE())
	f := NewNetFlow(eng, nic, NetFlowConfig{
		ProcName: "x", Class: netmodel.PriorityLow, PacketBytes: 4 << 10, TargetRate: 1 << 20, Seed: 2,
	})
	f.Start()
	eng.Run(sim.Time(1 * sim.Second))
	f.Stop()
	sent := f.Sent
	eng.Run(sim.Time(3 * sim.Second))
	if f.Sent != sent {
		t.Fatalf("flow kept sending after Stop: %d -> %d", sent, f.Sent)
	}
}

func TestNetFlowInvalidConfigPanics(t *testing.T) {
	eng := sim.NewEngine()
	nic := netmodel.NewNIC(eng, netmodel.TenGbE())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewNetFlow(eng, nic, NetFlowConfig{PacketBytes: 0, TargetRate: 1})
}

// TestEgressDeprioritizationProtectsPrimary is the §3.2 egress story:
// a saturating low-priority batch stream must not inflate the
// primary's egress queueing delay, and the low-priority rate cap must
// bind.
func TestEgressDeprioritizationProtectsPrimary(t *testing.T) {
	eng := sim.NewEngine()
	nic := netmodel.NewNIC(eng, netmodel.TenGbE())
	nic.SetLowPriorityRate(50 << 20) // PerfIso's egress cap

	batch := NewNetFlow(eng, nic, NetFlowConfig{
		ProcName: "ml-shuffle", Class: netmodel.PriorityLow,
		PacketBytes: 1 << 20, TargetRate: 2e9, Seed: 3, // way over link rate
	})
	primary := NewNetFlow(eng, nic, NetFlowConfig{
		ProcName: "indexserve", Class: netmodel.PriorityHigh,
		PacketBytes: 16 << 10, TargetRate: 100 << 20, Seed: 4,
	})
	batch.Start()
	primary.Start()
	eng.Run(sim.Time(5 * sim.Second))

	// Every primary packet's queueing delay stays tiny despite the
	// flood.
	hs := nic.ClassStats(netmodel.PriorityHigh)
	if hs.Packets == 0 {
		t.Fatal("no primary packet was sent")
	}
	if hs.MaxQueueTime > 2*sim.Millisecond {
		t.Fatalf("primary egress max queueing delay = %v under batch flood, want < 2ms", hs.MaxQueueTime)
	}
	// The cap binds the batch stream.
	gotBatch := float64(batch.DeliveredBytes()) / 5
	if gotBatch > 70<<20 {
		t.Fatalf("batch rate = %.1f MB/s, want <= ~50 MB/s cap", gotBatch/(1<<20))
	}
	// Primary throughput unharmed.
	gotPrim := float64(primary.DeliveredBytes()) / 5
	if gotPrim < 80<<20 {
		t.Fatalf("primary rate = %.1f MB/s, want ≈100", gotPrim/(1<<20))
	}
}
