package experiments

import (
	"perfiso/internal/cluster"
	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// Fig9Scale sizes the cluster experiment. The paper runs 200k queries
// at 8,000 QPS cluster-wide on 22 columns × 2 rows; tests shrink both.
type Fig9Scale struct {
	Columns int
	Queries int
	Warmup  int
	// RatePerRow is the per-row (and hence per-machine) query rate; the
	// paper's 8,000 QPS over 2 rows is 4,000 QPS per machine.
	RatePerRow float64
	Seed       uint64
}

// PaperFig9Scale is the full §5.3 cluster setup.
func PaperFig9Scale() Fig9Scale {
	return Fig9Scale{Columns: 22, Queries: 200000, Warmup: 20000, RatePerRow: 4000, Seed: 2017}
}

// TestFig9Scale is the reduced-topology variant for tests and benches.
func TestFig9Scale() Fig9Scale {
	return Fig9Scale{Columns: 4, Queries: 3000, Warmup: 500, RatePerRow: 1000, Seed: 2017}
}

// Fig9 collects the three cluster scenarios of Figs. 9a–9c.
type Fig9 struct {
	Standalone cluster.Result
	CPUBound   cluster.Result
	DiskBound  cluster.Result
}

// fig9PerfIsoConfig is the per-machine PerfIso configuration of §5.3:
// blind isolation with 8 buffer cores, HDFS replication capped at
// 20 MB/s, HDFS clients at 60 MB/s, and the disk bully throttled on the
// HDD stripe.
func fig9PerfIsoConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.IO = []core.IOVolumeConfig{{
		Volume:       "hdd",
		PollInterval: 100 * sim.Millisecond,
		Window:       5,
		Procs: []core.IOProcConfig{
			{Proc: "hdfs-replication", Weight: 1, MinIOPS: 10, BytesPerSec: 20 << 20},
			{Proc: "hdfs-client", Weight: 2, MinIOPS: 20, BytesPerSec: 60 << 20},
			{Proc: "diskbully", Weight: 1, MinIOPS: 20, BytesPerSec: 100 << 20},
		},
	}}
	return cfg
}

// runFig9Scenario assembles one cluster, optionally under PerfIso, and
// replays the trace.
func runFig9Scenario(scale Fig9Scale, secondary cluster.Secondary, isolate bool) cluster.Result {
	eng := sim.NewEngine()
	ccfg := cluster.ScaledConfig(scale.Columns)
	ccfg.Seed = scale.Seed
	c := cluster.New(eng, ccfg)
	if isolate {
		if err := c.InstallPerfIso(fig9PerfIsoConfig()); err != nil {
			panic(err)
		}
	}
	c.StartSecondary(secondary)
	// Cluster rate = per-row rate × rows (the TLAs round-robin rows).
	rate := scale.RatePerRow * float64(ccfg.Rows)
	res := c.Run(scale.Queries, scale.Warmup, rate, scale.Seed)
	foldCell(eng, nil, nil, controllers(c)...)
	return res
}

// fig9Cells lists the three cluster scenarios as independent cells.
// The cost scales with queries × columns: every query fans out across
// one row's columns, so simulation work grows with both.
func fig9Cells(scale Fig9Scale) []Cell {
	cost := float64(scale.Queries) * float64(scale.Columns)
	return []Cell{
		{Name: "standalone", Cost: cost, Run: func() any { return runFig9Scenario(scale, cluster.NoSecondary, false) }},
		{Name: "cpu-bound", Cost: cost, Run: func() any { return runFig9Scenario(scale, cluster.CPUSecondary, true) }},
		{Name: "disk-bound", Cost: cost, Run: func() any { return runFig9Scenario(scale, cluster.DiskSecondary, true) }},
	}
}

// assembleFig9 folds cell results (fig9Cells order) into the figure.
func assembleFig9(results []any) Fig9 {
	return Fig9{
		Standalone: results[0].(cluster.Result),
		CPUBound:   results[1].(cluster.Result),
		DiskBound:  results[2].(cluster.Result),
	}
}

// fig10Cells wraps the fluid model as a single cell. The fluid model
// is cheap at full size — a fixed nominal cost keeps it scheduled
// late and packed into any shard.
func fig10Cells() []Cell {
	return []Cell{{Name: "production-hour", Cost: 2000, Run: func() any {
		return cluster.RunProduction(cluster.DefaultProductionConfig())
	}}}
}
