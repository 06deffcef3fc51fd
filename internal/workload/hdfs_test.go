package workload

import (
	"testing"

	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/netmodel"
	"perfiso/internal/sim"
)

func hdfsFixture(t *testing.T) (*sim.Engine, *diskmodel.Volume, *netmodel.NIC, *cpumodel.Machine) {
	t.Helper()
	eng := sim.NewEngine()
	hdd := diskmodel.NewVolume(eng, diskmodel.HDDStripeConfig())
	nic := netmodel.NewNIC(eng, netmodel.TenGbE())
	cpu := cpumodel.New(eng, sim.NewRNG(2), cpumodel.DefaultConfig())
	return eng, hdd, nic, cpu
}

func TestHDFSFlowsRun(t *testing.T) {
	eng, hdd, nic, cpu := hdfsFixture(t)
	h := NewHDFS(eng, hdd, nic, cpu, DefaultHDFSConfig())
	h.Start()
	eng.Run(sim.Time(5 * sim.Second))

	if h.ClientOps == 0 || h.ReplicationOps == 0 {
		t.Fatalf("flows idle: client=%d repl=%d", h.ClientOps, h.ReplicationOps)
	}
	// Replication egress reaches the wire at low priority.
	if h.ReplicatedBytes == 0 {
		t.Fatal("no replication egress")
	}
	if nic.ClassStats(netmodel.PriorityLow).Bytes != h.ReplicatedBytes {
		t.Fatalf("NIC low-priority bytes %d != replicated %d",
			nic.ClassStats(netmodel.PriorityLow).Bytes, h.ReplicatedBytes)
	}
	// The CPU component holds its small share.
	cpu.AccrueAll()
	if sec := cpu.Breakdown().SecondaryPct; sec < 1 || sec > 8 {
		t.Fatalf("HDFS CPU share = %.1f%%, want a few percent", sec)
	}
	// Both flows accounted per process on the volume.
	if hdd.Stats("hdfs-client").Ops == 0 || hdd.Stats("hdfs-replication").Ops == 0 {
		t.Fatal("volume accounting missing a flow")
	}
}

func TestHDFSRespectsVolumeCaps(t *testing.T) {
	eng, hdd, nic, cpu := hdfsFixture(t)
	h := NewHDFS(eng, hdd, nic, cpu, DefaultHDFSConfig())
	// The §5.3 PerfIso caps: replication 20 MB/s, client 60 MB/s.
	hdd.SetRateLimit("hdfs-replication", 20<<20, 0)
	hdd.SetRateLimit("hdfs-client", 60<<20, 0)
	h.Start()
	eng.Run(sim.Time(10 * sim.Second))

	replRate := float64(hdd.Stats("hdfs-replication").Bytes) / 10
	clientRate := float64(hdd.Stats("hdfs-client").Bytes) / 10
	if replRate > 24<<20 {
		t.Fatalf("replication rate = %.1f MB/s, want <= ~20", replRate/(1<<20))
	}
	if clientRate > 66<<20 {
		t.Fatalf("client rate = %.1f MB/s, want <= ~60", clientRate/(1<<20))
	}
	if replRate < 10<<20 || clientRate < 30<<20 {
		t.Fatalf("caps starved the flows: repl=%.1f client=%.1f MB/s",
			replRate/(1<<20), clientRate/(1<<20))
	}
}

func TestHDFSStop(t *testing.T) {
	eng, hdd, nic, cpu := hdfsFixture(t)
	h := NewHDFS(eng, hdd, nic, cpu, DefaultHDFSConfig())
	h.Start()
	eng.Run(sim.Time(1 * sim.Second))
	h.Stop()
	ops := h.ClientOps + h.ReplicationOps
	eng.Run(sim.Time(4 * sim.Second))
	after := h.ClientOps + h.ReplicationOps
	// In-flight operations may complete; no new ones are issued.
	if after > ops+4 {
		t.Fatalf("HDFS kept issuing after Stop: %d -> %d", ops, after)
	}
}

// TestHDFSStartIsIdempotent: a second Start on a running tenant must
// not launch second client, replication or CPU streams — every counter
// matches a single Start's exactly.
func TestHDFSStartIsIdempotent(t *testing.T) {
	type readout struct {
		client, repl uint64
		egress       int64
		cpu          sim.Duration
	}
	run := func(starts int) readout {
		eng, hdd, nic, cpu := hdfsFixture(t)
		h := NewHDFS(eng, hdd, nic, cpu, DefaultHDFSConfig())
		for i := 0; i < starts; i++ {
			h.Start()
		}
		eng.Run(sim.Time(3 * sim.Second))
		return readout{h.ClientOps, h.ReplicationOps, h.ReplicatedBytes, h.CPU.Proc.CPUTime()}
	}
	if once, twice := run(1), run(2); once != twice {
		t.Fatalf("two Starts gave %+v, one Start %+v", twice, once)
	}
}

// TestHDFSRestartAfterStop: Start after Stop resumes exactly one of
// each flow at its configured rate, and the CPU trickle at its
// configured share, even when it comes before the stopped flows' next
// operations have fired.
func TestHDFSRestartAfterStop(t *testing.T) {
	eng, hdd, nic, cpu := hdfsFixture(t)
	cfg := DefaultHDFSConfig()
	h := NewHDFS(eng, hdd, nic, cpu, cfg)
	h.Start()
	eng.Run(sim.Time(sim.Second))
	h.Stop()
	eng.Run(sim.Time(sim.Second + 100*sim.Microsecond))
	h.Start()
	eng.Run(sim.Time(2 * sim.Second))
	client, repl, cpuMark := h.ClientOps, h.ReplicationOps, h.CPU.Proc.CPUTime()
	const span = 4
	eng.Run(sim.Time((2 + span) * sim.Second))
	rate := func(ops uint64) float64 { return float64(ops) / span }
	if got, want := rate(h.ClientOps-client), cfg.ClientRate/float64(cfg.ClientChunk); got < 0.9*want || got > 1.1*want {
		t.Fatalf("client flow after a restart: %.0f ops/s, want ≈%.0f", got, want)
	}
	if got, want := rate(h.ReplicationOps-repl), cfg.ReplicationRate/float64(cfg.ReplicationChunk); got < 0.85*want || got > 1.15*want {
		t.Fatalf("replication flow after a restart: %.0f ops/s, want ≈%.0f", got, want)
	}
	share := (h.CPU.Proc.CPUTime() - cpuMark).Seconds() / (span * float64(cpu.Cores()))
	if share < 0.9*cfg.CPUFraction || share > 1.1*cfg.CPUFraction {
		t.Fatalf("CPU share after a restart = %.4f, want ≈%.2f", share, cfg.CPUFraction)
	}
}

func TestHDFSNilComponents(t *testing.T) {
	eng, hdd, _, _ := hdfsFixture(t)
	h := NewHDFS(eng, hdd, nil, nil, DefaultHDFSConfig())
	h.Start()
	eng.Run(sim.Time(2 * sim.Second))
	if h.ClientOps == 0 {
		t.Fatal("client flow idle without NIC/CPU")
	}
	if h.ReplicatedBytes != 0 {
		t.Fatal("egress counted without a NIC")
	}
}

func TestHDFSInvalidConfigPanics(t *testing.T) {
	eng, hdd, nic, cpu := hdfsFixture(t)
	cfg := DefaultHDFSConfig()
	cfg.ClientRate = 0
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHDFS(eng, hdd, nic, cpu, cfg)
}
