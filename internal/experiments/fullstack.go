package experiments

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/netmodel"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// FullStackResult is the outcome of the everything-at-once scenario:
// IndexServe colocated with a CPU bully, a disk bully, the HDFS tenant
// and a saturating batch egress flow, with every PerfIso governor
// engaged. It is the closest single-machine analogue of a production
// machine and the repository's main cross-module integration check.
type FullStackResult struct {
	// Primary metrics.
	Latency  SingleResultLatency
	DropRate float64
	// Per-resource secondary progress.
	CPUBullyProgress float64
	DiskBullyMBps    float64
	HDFSClientMBps   float64
	ShuffleMBps      float64
	// Utilization split.
	UsedPct, SecondaryPct float64
}

// SingleResultLatency narrows the latency fields used by full-stack
// consumers.
type SingleResultLatency struct {
	P50Ms, P95Ms, P99Ms float64
}

// Table renders the full-stack outcome as one labeled block.
func (r FullStackResult) Table() string {
	return fmt.Sprintf(`full stack — every governor engaged, all secondaries at once
latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, drops %.2f%%
secondaries: cpu-bully %.1f cpu-sec, disk-bully %.1f MB/s, hdfs-client %.1f MB/s, shuffle %.1f MB/s
cpu: used %.1f%% (secondary %.1f%%)
`,
		r.Latency.P50Ms, r.Latency.P95Ms, r.Latency.P99Ms, 100*r.DropRate,
		r.CPUBullyProgress, r.DiskBullyMBps, r.HDFSClientMBps, r.ShuffleMBps,
		r.UsedPct, r.SecondaryPct)
}

// RunFullStack executes the combined scenario at the given load.
func RunFullStack(qps float64, scale Scale) FullStackResult {
	eng := sim.NewEngine()
	ncfg := node.DefaultConfig()
	ncfg.Seed = scale.Seed
	n := node.New(eng, ncfg)

	// Every governor configured: blind isolation, DWRR with the §5.3
	// caps, memory guard, egress deprioritization with a cap.
	cfg := core.DefaultConfig()
	cfg.SecondaryMemoryLimit = 16 << 30
	cfg.EgressLowPriorityRate = 50 << 20
	cfg.IO = []core.IOVolumeConfig{{
		Volume:       "hdd",
		PollInterval: 100 * sim.Millisecond,
		Window:       5,
		Procs: []core.IOProcConfig{
			{Proc: "hdfs-replication", Weight: 1, MinIOPS: 10, BytesPerSec: 20 << 20},
			{Proc: "hdfs-client", Weight: 2, MinIOPS: 20, BytesPerSec: 60 << 20},
			{Proc: "diskbully", Weight: 1, MinIOPS: 20},
		},
	}}
	ctrl, err := core.NewController(n.OS, cfg)
	if err != nil {
		panic(err)
	}

	cpuBully := workload.NewCPUBully(n.CPU, "cpu-bully", n.CPU.Cores())
	cpuBully.Start()
	ctrl.ManageSecondary(cpuBully.Proc)

	diskBully := workload.NewDiskBully(n.HDD, workload.DefaultDiskBullyConfig())
	diskBully.Start()

	hdfs := workload.NewHDFS(eng, n.HDD, n.NIC, n.CPU, workload.DefaultHDFSConfig())
	hdfs.Start()
	if hdfs.CPU != nil {
		ctrl.ManageSecondary(hdfs.CPU.Proc)
	}

	shuffle := workload.NewNetFlow(eng, n.NIC, workload.NetFlowConfig{
		ProcName: "ml-shuffle", Class: netmodel.PriorityLow,
		PacketBytes: 1 << 20, TargetRate: 2e9, Seed: scale.Seed,
	})
	shuffle.Start()

	ctrl.Start()

	trace := workload.GenerateTrace(workload.TraceConfig{
		Queries: scale.Queries, Rate: qps, Seed: scale.Seed,
	})
	var bullyBase float64
	if scale.Warmup > 0 && scale.Warmup < len(trace) {
		eng.At(trace[scale.Warmup].Arrival, func() {
			n.ResetMeasurement()
			bullyBase = cpuBully.Progress()
		})
	}
	client := workload.NewClient(eng, func(q workload.QuerySpec) { n.Server.Submit(q) })
	client.Replay(trace)
	last := trace[len(trace)-1].Arrival
	eng.Run(last.Add(sim.Duration(ncfg.IndexServe.Deadline) + sim.Second))
	foldCell(eng, nil, nil, ctrl)

	sum := n.Server.Latency.Summary()
	b := n.CPU.Breakdown()
	full := eng.Now().Seconds()
	return FullStackResult{
		Latency:          SingleResultLatency{P50Ms: sum.P50Ms, P95Ms: sum.P95Ms, P99Ms: sum.P99Ms},
		DropRate:         n.Server.DropRate(),
		CPUBullyProgress: cpuBully.Progress() - bullyBase,
		DiskBullyMBps:    float64(n.HDD.Stats("diskbully").Bytes) / full / (1 << 20),
		HDFSClientMBps:   float64(n.HDD.Stats("hdfs-client").Bytes) / full / (1 << 20),
		ShuffleMBps:      float64(shuffle.DeliveredBytes()) / full / (1 << 20),
		UsedPct:          b.UsedPct(),
		SecondaryPct:     b.SecondaryPct,
	}
}
