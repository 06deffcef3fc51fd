package cluster

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// smallCluster is a 4×2 cluster — the full topology at test scale.
func smallCluster(t *testing.T) *Cluster {
	t.Helper()
	eng := sim.NewEngine()
	return New(eng, ScaledConfig(4))
}

func TestTopologyAssembly(t *testing.T) {
	c := smallCluster(t)
	if c.Size() != 8 {
		t.Fatalf("size = %d, want 8", c.Size())
	}
	if len(c.TLAs) != 4 {
		t.Fatalf("TLAs = %d, want 4", len(c.TLAs))
	}
	seen := map[uint64]bool{}
	c.EachMachine(func(m *IndexMachine) {
		if m.Node == nil || m.Node.Server == nil {
			t.Fatal("machine missing node or server")
		}
	})
	_ = seen
}

func TestInvalidTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero columns")
		}
	}()
	cfg := DefaultConfig()
	cfg.Columns = 0
	New(sim.NewEngine(), cfg)
}

func TestStandaloneRunCompletesAllQueries(t *testing.T) {
	c := smallCluster(t)
	res := c.Run(600, 100, 2000, 9)
	if c.InFlight() != 0 {
		t.Fatalf("in flight = %d after drain", c.InFlight())
	}
	if c.Completed != 600 {
		t.Fatalf("completed = %d, want 600", c.Completed)
	}
	// Post-warmup measurements only: the 500 post-boundary queries plus
	// the handful in flight across the reset.
	if got := c.TLALatency.Count(); got < 500 || got > 550 {
		t.Fatalf("TLA samples = %d, want ≈500", got)
	}
	// Each query fans out to all 4 columns of one row.
	if got := c.ServerLatency.Count(); got < 2000 || got > 2200 {
		t.Fatalf("server samples = %d, want ≈2000", got)
	}
	if res.DropRate > 0.001 {
		t.Fatalf("drop rate = %.4f standalone", res.DropRate)
	}
}

func TestLayeredLatencyOrdering(t *testing.T) {
	// The slowest column dictates MLA latency, and the TLA adds hops:
	// P99(server) <= P99(MLA) <= P99(TLA), and e2e median must exceed
	// the per-server median (fan-out max effect, §1/Fig. 1).
	c := smallCluster(t)
	c.Run(800, 100, 2000, 11)
	sv, mla, tla := c.ServerLatency, c.MLALatency, c.TLALatency
	if !(sv.P99() <= mla.P99()*1.02) {
		t.Fatalf("server P99 %.2fms > MLA P99 %.2fms",
			sv.P99()/1e6, mla.P99()/1e6)
	}
	if !(mla.P99() <= tla.P99()) {
		t.Fatalf("MLA P99 %.2fms > TLA P99 %.2fms", mla.P99()/1e6, tla.P99()/1e6)
	}
	if sv.P50() >= mla.P50() {
		t.Fatalf("median did not grow across fan-out: server %.2fms MLA %.2fms",
			sv.P50()/1e6, mla.P50()/1e6)
	}
}

func TestPerfIsoProtectsClusterTail(t *testing.T) {
	// Fig. 9b at test scale: the CPU-bound secondary under PerfIso must
	// keep each layer's P99 within ~2 ms of standalone (paper: ≤1.2 ms
	// on real hardware; the band is wider at this reduced scale).
	base := smallCluster(t)
	baseRes := base.Run(800, 100, 2000, 21)

	iso := smallCluster(t)
	if err := iso.InstallPerfIso(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	iso.StartSecondary(CPUSecondary)
	isoRes := iso.Run(800, 100, 2000, 21)

	for _, layer := range []struct {
		name       string
		base, with float64
	}{
		{"server", baseRes.Server.P99Ms, isoRes.Server.P99Ms},
		{"mla", baseRes.MLA.P99Ms, isoRes.MLA.P99Ms},
		{"tla", baseRes.TLA.P99Ms, isoRes.TLA.P99Ms},
	} {
		if diff := layer.with - layer.base; diff > 2.0 {
			t.Errorf("%s P99 degradation = %.2f ms (%.2f → %.2f), want <= 2 ms",
				layer.name, diff, layer.base, layer.with)
		}
	}
	// And the batch job must actually get work done.
	if isoRes.AvgSecondaryPct < 15 {
		t.Errorf("secondary CPU share = %.1f%%, want a real harvest", isoRes.AvgSecondaryPct)
	}
	if isoRes.AvgCPUUsedPct < baseRes.AvgCPUUsedPct+15 {
		t.Errorf("utilization gain too small: %.1f%% → %.1f%%",
			baseRes.AvgCPUUsedPct, isoRes.AvgCPUUsedPct)
	}
}

func TestUnmanagedBullyDegradesClusterTail(t *testing.T) {
	// Without PerfIso the same secondary must blow up the tail — the
	// cluster-scale version of Fig. 4.
	base := smallCluster(t)
	baseRes := base.Run(400, 50, 2000, 31)

	noiso := smallCluster(t)
	noiso.StartSecondary(CPUSecondary)
	noRes := noiso.Run(400, 50, 2000, 31)

	if noRes.TLA.P99Ms < 3*baseRes.TLA.P99Ms {
		t.Fatalf("unmanaged bully: TLA P99 %.1f ms vs standalone %.1f ms; want >= 3x degradation",
			noRes.TLA.P99Ms, baseRes.TLA.P99Ms)
	}
}

func TestDiskSecondaryWithThrottling(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.IO = []core.IOVolumeConfig{{
		Volume:       "hdd",
		PollInterval: 100 * sim.Millisecond,
		Window:       5,
		Procs: []core.IOProcConfig{
			{Proc: "diskbully", Weight: 1, MinIOPS: 20, BytesPerSec: 100 << 20},
		},
	}}
	base := smallCluster(t)
	baseRes := base.Run(600, 100, 2000, 41)

	iso := smallCluster(t)
	if err := iso.InstallPerfIso(cfg); err != nil {
		t.Fatal(err)
	}
	iso.StartSecondary(DiskSecondary)
	isoRes := iso.Run(600, 100, 2000, 41)

	if diff := isoRes.TLA.P99Ms - baseRes.TLA.P99Ms; diff > 2.5 {
		t.Fatalf("disk-bound TLA P99 degradation = %.2f ms, want small (Fig. 9c)", diff)
	}
	// The bully must still move bytes.
	var bullyBytes int64
	iso.EachMachine(func(m *IndexMachine) {
		bullyBytes += m.Node.HDD.Stats("diskbully").Bytes
	})
	if bullyBytes == 0 {
		t.Fatal("disk bully did no I/O")
	}
	if isoRes.Secondary != "disk-bound" {
		t.Fatalf("scenario = %q", isoRes.Secondary)
	}
}

func TestRunPanicsWhenWarmupEatsTrace(t *testing.T) {
	c := smallCluster(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Run(100, 100, 2000, 1)
}

func TestSecondaryString(t *testing.T) {
	if NoSecondary.String() != "standalone" ||
		CPUSecondary.String() != "cpu-bound" ||
		DiskSecondary.String() != "disk-bound" {
		t.Fatal("secondary strings wrong")
	}
}

func TestProductionFluidModel(t *testing.T) {
	cfg := DefaultProductionConfig()
	cfg.Machines = 50 // smaller population, same dynamics
	res := RunProduction(cfg)
	if len(res.Samples) != int(cfg.Duration/cfg.Step) {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	// Fig. 10 headline: ~70% average CPU over the hour.
	if res.AvgCPUUsedPct < 60 || res.AvgCPUUsedPct > 85 {
		t.Fatalf("avg CPU = %.1f%%, want ≈70%%", res.AvgCPUUsedPct)
	}
	// Tail stays near standalone: the controller absorbs the diurnal
	// swings.
	if res.MaxP99ms > cfg.StandaloneP99ms+3 {
		t.Fatalf("max P99 = %.1f ms, want within 3 ms of standalone %v",
			res.MaxP99ms, cfg.StandaloneP99ms)
	}
	// The load curve actually swings.
	lo, hi := res.Samples[0].QPS, res.Samples[0].QPS
	for _, s := range res.Samples {
		if s.QPS < lo {
			lo = s.QPS
		}
		if s.QPS > hi {
			hi = s.QPS
		}
	}
	if hi/lo < 1.5 {
		t.Fatalf("diurnal swing hi/lo = %.2f, want >= 1.5", hi/lo)
	}
}

func TestProductionSecondaryTracksLoadInverse(t *testing.T) {
	cfg := DefaultProductionConfig()
	cfg.Machines = 20
	// Remove the ML job's parallelism bound so the controller's grant —
	// not the job's demand — is the binding constraint; the control law
	// must then hand back cores exactly when the primary needs them.
	cfg.SecondaryDemandCores = 0
	res := RunProduction(cfg)
	// At the load peak the secondary share must be lower than at the
	// trough: harvesting is work-proportional.
	var peak, trough ProductionSample
	for _, s := range res.Samples {
		if s.QPS > peak.QPS || peak.QPS == 0 {
			peak = s
		}
		if s.QPS < trough.QPS || trough.QPS == 0 {
			trough = s
		}
	}
	if peak.SecondaryPct >= trough.SecondaryPct {
		t.Fatalf("secondary share at peak (%.1f%%) >= at trough (%.1f%%)",
			peak.SecondaryPct, trough.SecondaryPct)
	}
}

func TestProductionInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cfg := DefaultProductionConfig()
	cfg.Step = 0
	RunProduction(cfg)
}

func TestHDFSTenantRunsOnEveryMachine(t *testing.T) {
	c := smallCluster(t)
	c.Run(400, 100, 2000, 51)
	c.EachMachine(func(m *IndexMachine) {
		if m.HDFS == nil {
			t.Fatal("machine missing HDFS tenant")
		}
		if m.HDFS.ClientOps == 0 || m.HDFS.ReplicationOps == 0 {
			t.Fatalf("machine r%dc%d: HDFS idle (client=%d repl=%d)",
				m.Row, m.Column, m.HDFS.ClientOps, m.HDFS.ReplicationOps)
		}
	})
}

func TestPerfIsoCapsHDFSFlows(t *testing.T) {
	// §5.3: replication limited to 20 MB/s and clients to 60 MB/s via
	// the controller's IO policy.
	eng := sim.NewEngine()
	c := New(eng, ScaledConfig(2))
	if err := c.InstallPerfIso(fig9TestConfig()); err != nil {
		t.Fatal(err)
	}
	c.Run(1500, 300, 1000, 61)
	elapsed := eng.Now().Seconds()
	c.EachMachine(func(m *IndexMachine) {
		repl := float64(m.Node.HDD.Stats("hdfs-replication").Bytes) / elapsed
		client := float64(m.Node.HDD.Stats("hdfs-client").Bytes) / elapsed
		if repl > 24<<20 {
			t.Errorf("replication = %.1f MB/s, cap is 20", repl/(1<<20))
		}
		if client > 66<<20 {
			t.Errorf("client = %.1f MB/s, cap is 60", client/(1<<20))
		}
	})
}

// fig9TestConfig mirrors the experiment package's §5.3 PerfIso policy.
func fig9TestConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.IO = []core.IOVolumeConfig{{
		Volume:       "hdd",
		PollInterval: 100 * sim.Millisecond,
		Window:       5,
		Procs: []core.IOProcConfig{
			{Proc: "hdfs-replication", Weight: 1, MinIOPS: 10, BytesPerSec: 20 << 20},
			{Proc: "hdfs-client", Weight: 2, MinIOPS: 20, BytesPerSec: 60 << 20},
		},
	}}
	return cfg
}

func TestFailoverRoutesAroundDownMachine(t *testing.T) {
	c := smallCluster(t)
	// Fail one machine in row 0: every query must route to row 1 and
	// still complete.
	c.FailMachine(0, 2)
	c.Run(600, 100, 2000, 71)
	if c.Completed != 600 {
		t.Fatalf("completed = %d/600 with one machine down", c.Completed)
	}
	if c.Unserved() != 0 {
		t.Fatalf("unserved = %d with a healthy row available", c.Unserved())
	}
	// Row 0 received no queries; row 1 carried everything.
	var row0, row1 uint64
	c.EachMachine(func(m *IndexMachine) {
		done := m.Node.Server.Completed + m.Node.Server.Dropped
		if m.Row == 0 {
			row0 += done
		} else {
			row1 += done
		}
	})
	if row0 != 0 {
		t.Fatalf("row 0 processed %d queries while degraded", row0)
	}
	if row1 == 0 {
		t.Fatal("row 1 processed nothing")
	}
}

func TestRestoreRebalancesRows(t *testing.T) {
	c := smallCluster(t)
	c.FailMachine(1, 0)
	c.RestoreMachine(1, 0)
	c.Run(400, 100, 2000, 81)
	var row0, row1 uint64
	c.EachMachine(func(m *IndexMachine) {
		done := m.Node.Server.Completed + m.Node.Server.Dropped
		if m.Row == 0 {
			row0 += done
		} else {
			row1 += done
		}
	})
	if row0 == 0 || row1 == 0 {
		t.Fatalf("rows unbalanced after restore: %d / %d", row0, row1)
	}
}

func TestTotalOutageCountsUnserved(t *testing.T) {
	c := smallCluster(t)
	c.FailMachine(0, 0)
	c.FailMachine(1, 0)
	c.Run(300, 50, 2000, 91)
	if c.Unserved() == 0 {
		t.Fatal("no unserved queries during total outage")
	}
	if c.Completed+c.Unserved() != 300 {
		t.Fatalf("completed(%d) + unserved(%d) != 300", c.Completed, c.Unserved())
	}
}

func TestFailMachineBoundsPanic(t *testing.T) {
	c := smallCluster(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.FailMachine(5, 0)
}

func TestClusterDeterminism(t *testing.T) {
	// Bit-for-bit reproducibility from the seed: two identical cluster
	// runs must agree on every aggregate.
	run := func() Result {
		eng := sim.NewEngine()
		c := New(eng, ScaledConfig(3))
		c.StartSecondary(CPUSecondary)
		return c.Run(500, 100, 2000, 77)
	}
	a, b := run(), run()
	if a.TLA != b.TLA || a.MLA != b.MLA || a.Server != b.Server {
		t.Fatalf("nondeterministic cluster runs:\n%+v\n%+v", a, b)
	}
	if a.AvgCPUUsedPct != b.AvgCPUUsedPct {
		t.Fatalf("utilization differs: %v vs %v", a.AvgCPUUsedPct, b.AvgCPUUsedPct)
	}
}

func TestReplayMatchesMaterializedArrivals(t *testing.T) {
	// reference is the loop replay replaced: every arrival drawn up
	// front from the seed.
	reference := func(start sim.Time, queries int, rate float64, seed uint64) []sim.Time {
		rng := sim.NewRNG(seed)
		meanGap := sim.Duration(float64(sim.Second) / rate)
		arrivals := make([]sim.Time, queries)
		at := start
		for i := range arrivals {
			at = at.Add(rng.ExpDuration(meanGap))
			arrivals[i] = at
		}
		return arrivals
	}
	type call struct {
		at    sim.Time
		reset bool
	}
	const queries = 300
	for _, seed := range []uint64{1, 9, 77, 2017, 1<<64 - 1} {
		for _, warmup := range []int{0, 1, queries / 3, queries - 1} {
			c := smallCluster(t)
			// Start mid-run, as a cell that replays after a settling
			// period would.
			c.Eng.Run(sim.Time(3 * sim.Millisecond))
			start := c.Eng.Now()
			var got []call
			last := c.replay(queries, warmup, 2000, seed,
				func() { got = append(got, call{c.Eng.Now(), true}) },
				func() { got = append(got, call{c.Eng.Now(), false}) })
			c.Eng.Run(last.Add(sim.Second))

			arrivals := reference(start, queries, 2000, seed)
			var want []call
			for i, at := range arrivals {
				if i == warmup {
					want = append(want, call{at, true})
				}
				want = append(want, call{at, false})
			}
			if last != arrivals[queries-1] {
				t.Errorf("seed %d warmup %d: last arrival %v, want %v", seed, warmup, last, arrivals[queries-1])
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d warmup %d: %d calls, want %d", seed, warmup, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d warmup %d: call %d = %+v, want %+v", seed, warmup, i, got[i], want[i])
				}
			}
		}
	}
}
