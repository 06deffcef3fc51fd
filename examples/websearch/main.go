// Websearch compares every CPU isolation technique of §6.1 on the
// simulated web-search node: no isolation, static core restriction,
// static cycle capping, and CPU blind isolation — the single-machine
// story of the paper in one run.
//
// For each policy it prints tail latency, drops, the CPU split, and
// the batch job's progress, reproducing the Fig. 8 comparison shape:
// blind isolation matches standalone latency while harvesting the most
// idle CPU; cycle capping fails outright.
//
//	go run ./examples/websearch [-qps 2000] [-queries 20000]
package main

import (
	"flag"
	"fmt"

	"perfiso/internal/experiments"
	"perfiso/internal/isolation"
)

func main() {
	qps := flag.Float64("qps", 2000, "offered query load")
	queries := flag.Int("queries", 20000, "trace length")
	flag.Parse()

	scale := experiments.Scale{Queries: *queries, Warmup: *queries / 5, Seed: 2017}

	cells := []struct {
		label  string
		bully  experiments.BullyMode
		policy isolation.Policy
	}{
		{"standalone", experiments.BullyOff, nil},
		{"no isolation", experiments.BullyHigh, nil},
		{"blind isolation B=8", experiments.BullyHigh, &isolation.Blind{BufferCores: 8}},
		{"static 8 cores", experiments.BullyHigh, isolation.StaticCores{Cores: 8}},
		{"cycle cap 5%", experiments.BullyHigh, isolation.CycleCap{Fraction: 0.05}},
	}

	fmt.Printf("IndexServe at %.0f QPS vs a 48-thread CPU bully\n\n", *qps)
	fmt.Printf("%-22s %8s %8s %8s %7s %7s %9s\n",
		"policy", "p50ms", "p99ms", "drop%", "idle%", "sec%", "progress")
	var baseline experiments.SingleResult
	for i, c := range cells {
		r := experiments.RunSingle(*qps, c.bully, c.policy, scale)
		if i == 0 {
			baseline = r
		}
		fmt.Printf("%-22s %8.2f %8.2f %8.2f %6.1f%% %6.1f%% %9.1f\n",
			c.label, r.Latency.P50Ms, r.Latency.P99Ms, 100*r.DropRate,
			r.Breakdown.IdlePct, r.Breakdown.SecondaryPct, r.BullyProgress)
	}
	fmt.Printf("\nstandalone P99 is the SLO anchor: %.2f ms (+1 ms budget, §2.1)\n",
		baseline.Latency.P99Ms)
}
