// Clustertour runs a miniature version of the §5.3 production cluster —
// TLAs load-balancing over two replicated index rows, an MLA per
// request aggregating its row's columns — and prints latency at each
// layer, standalone and colocated under PerfIso.
//
// The layered effect the paper builds on is visible directly: the
// slowest of the fanned-out servers dictates the MLA latency, and the
// MLA tail plus network hops dictate the TLA tail, so one machine's
// interference multiplies across the cluster.
//
//	go run ./examples/clustertour [-columns 4] [-queries 3000]
package main

import (
	"flag"
	"fmt"
	"log"

	"perfiso/internal/cluster"
	"perfiso/internal/core"
	"perfiso/internal/sim"
)

func main() {
	columns := flag.Int("columns", 4, "index columns per row")
	queries := flag.Int("queries", 3000, "trace length")
	flag.Parse()

	run := func(colocate bool) cluster.Result {
		eng := sim.NewEngine()
		c := cluster.New(eng, cluster.ScaledConfig(*columns))
		if colocate {
			if err := c.InstallPerfIso(core.DefaultConfig()); err != nil {
				log.Fatalf("installing PerfIso: %v", err)
			}
			c.StartSecondary(cluster.CPUSecondary)
		}
		return c.Run(*queries, *queries/6, 2000, 11)
	}

	show := func(label string, r cluster.Result) {
		fmt.Printf("%s\n", label)
		fmt.Printf("  %-22s avg %6.2f ms   p95 %6.2f ms   p99 %6.2f ms\n",
			"local IndexServe", r.Server.MeanMs, r.Server.P95Ms, r.Server.P99Ms)
		fmt.Printf("  %-22s avg %6.2f ms   p95 %6.2f ms   p99 %6.2f ms\n",
			"mid-level aggregator", r.MLA.MeanMs, r.MLA.P95Ms, r.MLA.P99Ms)
		fmt.Printf("  %-22s avg %6.2f ms   p95 %6.2f ms   p99 %6.2f ms\n",
			"top-level aggregator", r.TLA.MeanMs, r.TLA.P95Ms, r.TLA.P99Ms)
		fmt.Printf("  machine CPU used %.1f%% (secondary %.1f%%)\n\n",
			r.AvgCPUUsedPct, r.AvgSecondaryPct)
	}

	fmt.Printf("mini cluster: %d columns × 2 rows + TLAs\n\n", *columns)
	show("standalone", run(false))
	show("CPU-bound secondary under PerfIso", run(true))
}
