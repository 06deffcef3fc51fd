package experiments

import (
	"fmt"
	"strings"

	"perfiso/internal/cluster"
)

// row formats one latency/utilization line shared by all figure tables.
func row(b *strings.Builder, label string, r SingleResult) {
	fmt.Fprintf(b, "%-22s %6.0f  %7.2f %7.2f %7.2f  %5.1f%% %5.1f%% %5.1f%%  %6.2f%%  %8.1f\n",
		label, r.QPS,
		r.Latency.P50Ms, r.Latency.P95Ms, r.Latency.P99Ms,
		r.Breakdown.PrimaryPct, r.Breakdown.SecondaryPct, r.Breakdown.IdlePct,
		100*r.DropRate, r.BullyProgress)
}

func header(b *strings.Builder, title string) {
	fmt.Fprintf(b, "%s\n", title)
	fmt.Fprintf(b, "%-22s %6s  %7s %7s %7s  %6s %6s %6s  %7s  %8s\n",
		"cell", "qps", "p50ms", "p95ms", "p99ms", "prim", "sec", "idle", "drop", "progress")
	b.WriteString(strings.Repeat("-", 100) + "\n")
}

// Table renders Fig. 9's three per-layer panels.
func (f Fig9) Table() string {
	var b strings.Builder
	b.WriteString("Fig. 9 — cluster latency per layer (avg / p95 / p99 ms)\n")
	fmt.Fprintf(&b, "%-12s  %-26s %-26s %-26s  %6s %6s\n",
		"scenario", "local IndexServe", "mid-level aggregator", "top-level aggregator", "cpu", "sec")
	b.WriteString(strings.Repeat("-", 118) + "\n")
	for _, sc := range []struct {
		name string
		r    cluster.Result
	}{
		{"standalone", f.Standalone},
		{"cpu-bound", f.CPUBound},
		{"disk-bound", f.DiskBound},
	} {
		fmt.Fprintf(&b, "%-12s  %7.2f %7.2f %8.2f  %7.2f %7.2f %8.2f  %7.2f %7.2f %8.2f  %5.1f%% %5.1f%%\n",
			sc.name,
			sc.r.Server.MeanMs, sc.r.Server.P95Ms, sc.r.Server.P99Ms,
			sc.r.MLA.MeanMs, sc.r.MLA.P95Ms, sc.r.MLA.P99Ms,
			sc.r.TLA.MeanMs, sc.r.TLA.P95Ms, sc.r.TLA.P99Ms,
			sc.r.AvgCPUUsedPct, sc.r.AvgSecondaryPct)
	}
	return b.String()
}

// fig10TableEvery is the sampling stride of the Fig. 10 table: one row
// per ten simulated minutes of the one-second production series.
const fig10TableEvery = 600

// Fig10Table renders the production series as sampled rows plus the
// headline aggregate.
func Fig10Table(r cluster.ProductionResult) string {
	var b strings.Builder
	b.WriteString("Fig. 10 — 650-machine production hour (fluid model)\n")
	fmt.Fprintf(&b, "%8s  %8s  %8s  %8s  %8s\n", "t", "qps", "p99ms", "cpu%", "sec%")
	for i, s := range r.Samples {
		if i%fig10TableEvery != 0 {
			continue
		}
		fmt.Fprintf(&b, "%8.0fs  %8.0f  %8.2f  %8.1f  %8.1f\n",
			s.At.Seconds(), s.QPS, s.P99ms, s.CPUUsedPct, s.SecondaryPct)
	}
	fmt.Fprintf(&b, "\n%s\n", r)
	return b.String()
}
