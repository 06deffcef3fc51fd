// Quickstart: colocate a CPU-hungry batch job with a latency-sensitive
// service under PerfIso and watch the buffer invariant hold.
//
// The flow is the paper's core loop in miniature: build a 48-core
// server running an IndexServe-style primary, launch a 48-thread CPU
// bully, wrap the bully in a PerfIso controller with the default 8
// buffer cores, and replay a query trace. Without PerfIso the tail
// collapses (run with -no-isolation to see); with it, P99 stays at the
// standalone ~12 ms while the bully harvests ~45% of the machine.
//
//	go run ./examples/quickstart [-no-isolation]
package main

import (
	"flag"
	"fmt"
	"log"

	"perfiso/internal/core"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

func main() {
	noIso := flag.Bool("no-isolation", false, "colocate without PerfIso")
	flag.Parse()

	eng := sim.NewEngine()
	n := node.New(eng, node.DefaultConfig())

	// The batch job: a 48-thread integer-summing bully, the paper's
	// worst-case secondary.
	bully := workload.NewCPUBully(n.CPU, "cpu-bully", 48)
	bully.Start()

	if !*noIso {
		ctrl, err := core.NewController(n.OS, core.DefaultConfig())
		if err != nil {
			log.Fatalf("building controller: %v", err)
		}
		ctrl.ManageSecondary(bully.Proc)
		ctrl.Start()
	}

	// Replay 20k queries at average load (2,000 QPS), with a warmup
	// prefix excluded from measurement.
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: 20000, Rate: 2000, Seed: 42})
	n.ReplayTrace(trace, 4000)
	last := trace[len(trace)-1].Arrival
	eng.Run(last.Add(2 * sim.Second))

	sum := n.Server.Latency.Summary()
	b := n.CPU.Breakdown()
	mode := "with PerfIso (blind isolation, 8 buffer cores)"
	if *noIso {
		mode = "WITHOUT isolation"
	}
	fmt.Printf("colocation %s\n", mode)
	fmt.Printf("  query latency: P50 %.2f ms   P95 %.2f ms   P99 %.2f ms\n",
		sum.P50Ms, sum.P95Ms, sum.P99Ms)
	fmt.Printf("  dropped queries: %.2f%%\n", 100*n.Server.DropRate())
	fmt.Printf("  CPU: primary %.1f%%  secondary %.1f%%  os %.1f%%  idle %.1f%%\n",
		b.PrimaryPct, b.SecondaryPct, b.OSPct, b.IdlePct)
	fmt.Printf("  batch progress: %.1f CPU-seconds\n", bully.Progress())
	fmt.Printf("  idle cores now: %d\n", n.OS.IdleCores())
}
