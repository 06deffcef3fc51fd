package workload

import (
	"testing"

	"perfiso/internal/diskmodel"
	"perfiso/internal/netmodel"
	"perfiso/internal/sim"
)

// oneOp returns a step that runs eng until ops advances: one completed
// tenant operation, with whatever else the engine interleaves.
func oneOp(eng *sim.Engine, ops func() uint64) func() {
	return func() {
		n := ops()
		for ops() == n && eng.Step() {
		}
	}
}

// TestTenantOperationsDoNotAllocate holds the secondary tenants' I/O to
// zero allocations per operation once warm: HDFS (client and
// replication flows, egress and its CPU trickle), the DiskBully with
// and without a volume cap gating it, and a NetFlow. Each flow's
// counters must still agree with what its devices served.
func TestTenantOperationsDoNotAllocate(t *testing.T) {
	const warm, runs = 2 * sim.Second, 2000
	check := func(t *testing.T, eng *sim.Engine, ops func() uint64) {
		t.Helper()
		eng.Run(sim.Time(warm))
		before := ops()
		if allocs := testing.AllocsPerRun(runs, oneOp(eng, ops)); allocs != 0 {
			t.Fatalf("%.2f allocations per operation, want 0", allocs)
		}
		if got := ops() - before; got < runs {
			t.Fatalf("%d operations completed, want %d", got, runs)
		}
	}

	t.Run("hdfs", func(t *testing.T) {
		eng, hdd, nic, cpu := hdfsFixture(t)
		h := NewHDFS(eng, hdd, nic, cpu, DefaultHDFSConfig())
		h.Start()
		check(t, eng, func() uint64 { return h.ClientOps + h.ReplicationOps })
		if h.ClientOps != hdd.Stats("hdfs-client").Ops || h.ReplicationOps != hdd.Stats("hdfs-replication").Ops {
			t.Fatalf("op counters %d/%d disagree with the volume's %d/%d", h.ClientOps, h.ReplicationOps,
				hdd.Stats("hdfs-client").Ops, hdd.Stats("hdfs-replication").Ops)
		}
		if nic.ClassStats(netmodel.PriorityLow).Bytes != h.ReplicatedBytes {
			t.Fatalf("replicated %d bytes, NIC sent %d", h.ReplicatedBytes, nic.ClassStats(netmodel.PriorityLow).Bytes)
		}
	})

	for _, capped := range []bool{false, true} {
		name := "diskbully"
		if capped {
			name += "-capped"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			vol := diskmodel.NewVolume(eng, diskmodel.HDDStripeConfig())
			cfg := DefaultDiskBullyConfig()
			if capped {
				// Every operation waits for tokens, so the gate's
				// retry arms again and again.
				vol.SetRateLimit(cfg.ProcName, 1e6, 0)
			}
			d := NewDiskBully(vol, cfg)
			d.Start()
			check(t, eng, func() uint64 { return d.Ops })
			if d.Ops != vol.Stats(cfg.ProcName).Ops {
				t.Fatalf("bully counted %d ops, volume served %d", d.Ops, vol.Stats(cfg.ProcName).Ops)
			}
		})
	}

	t.Run("netflow", func(t *testing.T) {
		eng := sim.NewEngine()
		nic := netmodel.NewNIC(eng, netmodel.TenGbE())
		f := NewNetFlow(eng, nic, NetFlowConfig{
			ProcName: "shuffle", Class: netmodel.PriorityLow, PacketBytes: 64 << 10, TargetRate: 100 << 20, Seed: 1,
		})
		f.Start()
		check(t, eng, func() uint64 { return f.Delivered })
		if f.DeliveredBytes() != nic.ClassStats(netmodel.PriorityLow).Bytes || f.Sent < f.Delivered {
			t.Fatalf("sent %d, delivered %d bytes, NIC sent %d", f.Sent, f.DeliveredBytes(), nic.ClassStats(netmodel.PriorityLow).Bytes)
		}
	})
}
