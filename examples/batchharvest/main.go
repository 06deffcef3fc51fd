// Batchharvest demonstrates the non-CPU governors of PerfIso (§3.2,
// §4.1) on the full secondary stack of the cluster experiments: an
// HDFS tenant (client I/O + replication ingest + low-priority egress)
// and a DiskSPD-style disk bully on the shared HDD stripe, throttled
// with deficit-weighted round-robin and the §5.3 static byte caps; a
// saturating batch egress flow deprioritized behind the primary's
// responses; and the memory guard killing a runaway batch job.
//
//	go run ./examples/batchharvest
package main

import (
	"fmt"
	"log"

	"perfiso/internal/core"
	"perfiso/internal/netmodel"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

func main() {
	eng := sim.NewEngine()
	n := node.New(eng, node.DefaultConfig())

	// PerfIso config: DWRR on the HDD volume with the §5.3 static caps
	// (replication 20 MB/s, HDFS client 60 MB/s), a 50 MB/s egress cap,
	// and a memory limit on the secondary job.
	cfg := core.DefaultConfig()
	cfg.SecondaryMemoryLimit = 8 << 30
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
		log.Fatalf("building controller: %v", err)
	}

	// The secondary stack: HDFS tenant, disk bully, and a batch shuffle
	// flow that would saturate the NIC if not deprioritized.
	hdfs := workload.NewHDFS(n.Eng, n.HDD, n.NIC, n.CPU, workload.DefaultHDFSConfig())
	hdfs.Start()
	bully := workload.NewDiskBully(n.HDD, workload.DefaultDiskBullyConfig())
	bully.Start()
	shuffle := workload.NewNetFlow(n.Eng, n.NIC, workload.NetFlowConfig{
		ProcName: "ml-shuffle", Class: netmodel.PriorityLow, PacketBytes: 1 << 20,
		TargetRate: 2e9, Seed: 5,
	})
	shuffle.Start()

	// Register the batch job's process so the CPU governor and memory
	// guard see it (Autopilot's registry does this in production).
	batchProc := n.CPU.NewProcess("diskbully", stats.ClassSecondary)
	ctrl.ManageSecondary(batchProc)
	ctrl.Start()

	// Primary load at average rate.
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: 10000, Rate: 2000, Seed: 7})
	n.ReplayTrace(trace, 2000)
	last := trace[len(trace)-1].Arrival
	eng.Run(last.Add(2 * sim.Second))
	elapsed := eng.Now().Seconds()

	sum := n.Server.Latency.Summary()
	fmt.Println("disk-bound colocation under PerfIso (DWRR + egress + memory governors)")
	fmt.Printf("  query latency: P50 %.2f ms  P99 %.2f ms  (drops %.2f%%)\n",
		sum.P50Ms, sum.P99Ms, 100*n.Server.DropRate())

	fmt.Println("\n  disk (HDD stripe):")
	for _, proc := range []string{"diskbully", "hdfs-client", "hdfs-replication"} {
		st := n.HDD.Stats(proc)
		fmt.Printf("    %-18s %8d ops  %7.1f MB/s\n", proc, st.Ops, float64(st.Bytes)/elapsed/(1<<20))
	}
	for _, t := range ctrl.IO {
		for _, s := range t.Snapshot() {
			fmt.Printf("    dwrr %-18s deficit %+6.2f  prio %d\n", s.Proc, s.Deficit, s.Priority)
		}
	}

	fmt.Println("\n  network (egress):")
	fmt.Printf("    batch shuffle delivered %.1f MB/s (offered 2000, capped at 50)\n",
		float64(shuffle.DeliveredBytes())/elapsed/(1<<20))
	fmt.Printf("    hdfs replication pushed %.1f MB/s to the next replica\n",
		float64(hdfs.ReplicatedBytes)/elapsed/(1<<20))

	// Part two: the memory guard. The batch job leaks past its limit
	// and PerfIso kills the job (§3.2: "when memory runs very low,
	// secondary processes are killed").
	n.Memory.Set("diskbully", 12<<30) // over the 8 GB job limit
	eng.Run(eng.Now().Add(1 * sim.Second))
	fmt.Printf("\n  memory guard: job killed = %v (kills: %d)\n",
		ctrl.Secondary.Killed(), ctrl.Memory.Kills)
}
