package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// savedRun is one saved benchmark output: its meta and result lines.
type savedRun struct {
	meta   meta
	result result
}

// readRun parses a file holding one run's standard output.
func readRun(path string) (savedRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return savedRun{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var r savedRun
	if len(lines) < 2 {
		return r, fmt.Errorf("%s: want a meta line and a result line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.result); err != nil {
		return r, fmt.Errorf("%s: result line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r.meta); err != nil || r.meta.Workload == "" {
		return r, fmt.Errorf("%s: no meta line before the result", path)
	}
	if r.meta.Trace {
		return r, fmt.Errorf("%s: a traced run; compare reads untraced runs", path)
	}
	return r, nil
}

// compareCmd compares runs of a parent (A) and a change (B):
//
//	compare A1.out A2.out ... -- B1.out B2.out ...
//
// Both sides must run each workload on the same seeds; runs pair by
// seed. It exits 1 when any metric is worse, when a seed's sim_digest
// differs, or when the change fails more ops than the parent.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench compare A.out... -- B.out...")
		return 2
	}
	load := func(paths []string) (map[string][]savedRun, error) {
		out := map[string][]savedRun{}
		for _, p := range paths {
			r, err := readRun(p)
			if err != nil {
				return nil, err
			}
			out[r.meta.Workload] = append(out[r.meta.Workload], r)
		}
		for _, runs := range out {
			sort.SliceStable(runs, func(i, j int) bool { return runs[i].meta.Seed < runs[j].meta.Seed })
		}
		return out, nil
	}
	a, err := load(args[:split])
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	b, err := load(args[split+1:])
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	for _, wl := range sortedKeys(a) {
		if len(b[wl]) > 0 && seeds(a[wl]) != seeds(b[wl]) {
			fmt.Fprintf(stderr, "bench compare: %s ran seeds %s in A but %s in B; run both on the same seeds\n",
				wl, seeds(a[wl]), seeds(b[wl]))
			return 2
		}
	}
	return compareRuns(a, b, stdout)
}

func seeds(runs []savedRun) string {
	s := make([]string, len(runs))
	for i, r := range runs {
		s[i] = fmt.Sprint(r.meta.Seed)
	}
	return strings.Join(s, ",")
}

func compareRuns(a, b map[string][]savedRun, w io.Writer) int {
	fmt.Fprintf(w, "%-18s %-18s %3s %12s %23s %3s %12s %23s %8s %5s  %s\n",
		"workload", "metric", "nA", "A median", "A [q1, q3]", "nB", "B median", "B [q1, q3]", "change", "won", "verdict")
	bad := 0
	for _, wl := range sortedKeys(a) {
		if len(b[wl]) == 0 {
			fmt.Fprintf(w, "%-18s only in A\n", wl)
			continue
		}
		failedA, failedB := 0, 0
		for i, r := range b[wl] {
			if d := a[wl][i].meta.SimDigest; d != r.meta.SimDigest {
				fmt.Fprintf(w, "%-18s sim_digest differs at seed %d: the change alters simulated outcomes\n", wl, r.meta.Seed)
				bad++
			}
			failedA += a[wl][i].result.Failed
			failedB += r.result.Failed
		}
		if failedB > failedA {
			fmt.Fprintf(w, "%-18s the change failed %d ops, the parent %d\n", wl, failedB, failedA)
			bad++
		}
		for _, d := range append(append([]metricDef(nil), endToEndMetrics...), outcomeMetrics...) {
			av, bv := values(a[wl], d.Name), values(b[wl], d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := judge(d, av, bv)
			if c.verdict == "worse" {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-18s %3d %12.6g [%10.6g, %10.6g] %3d %12.6g [%10.6g, %10.6g] %+7.1f%% %4.0f%%  %s\n",
				wl, d.Name, len(av), c.a.median, c.a.q1, c.a.q3, len(bv), c.b.median, c.b.q1, c.b.q3,
				100*c.change, 100*c.won, c.verdict)
		}
	}
	for _, wl := range sortedKeys(b) {
		if len(a[wl]) == 0 {
			fmt.Fprintf(w, "%-18s only in B\n", wl)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s): worse metrics, changed digests or more failed ops\n", bad)
		return 1
	}
	return 0
}

// values reads one metric from each run: an end-to-end metric from the
// result line, an outcome from the meta line.
func values(runs []savedRun, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[name]; ok {
			v = append(v, m.Value)
		} else if x, ok := r.meta.Outcomes[name]; ok {
			v = append(v, x)
		}
	}
	return v
}

// summary is a sample's median and quartiles.
type summary struct{ q1, median, q3 float64 }

// summarize gives the quartiles as Python's statistics.quantiles(v,
// n=4) does (the "exclusive" method).
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return summary{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return summary{q(1), q(2), q(3)}
}

// comparison is one metric's verdict between A and B.
type comparison struct {
	a, b summary
	// change is B's median relative to A's, signed so that positive is
	// worse; won is the share of seed-paired runs B reads better.
	change, won float64
	verdict     string
}

// judge applies the benchmark's acceptance rules: a gain needs B to
// win at least nine pairs in ten and to move the median by more than
// A's own quartile spread; a regression is a median worse by more than
// the bound; where either side's spread exceeds the bound the metric
// is unresolved unless every B run beats (or loses to) every A run.
// A simulated metric repeats exactly at its seed, so its spread over
// seeds is not noise: it is judged with no spread and bound 0.
func judge(d metricDef, av, bv []float64) comparison {
	c := comparison{a: summarize(av), b: summarize(bv)}
	sign := 1.0 // +1 when lower is better
	if d.Better == "higher" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*(x-y) < 0 } // x beats y
	c.change = sign * relative(c.b.median-c.a.median, c.a.median)

	pairs := min(len(av), len(bv))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(bv[i], av[i]) {
			wins++
		}
	}
	c.won = float64(wins) / float64(pairs)

	allBetter, allWorse := true, true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	bound, noise := d.Bound, c.a.q3-c.a.q1
	spread := math.Max(relative(c.a.q3-c.a.q1, c.a.median), relative(c.b.q3-c.b.q1, c.b.median))
	if d.Sim {
		bound, noise, spread = 0, 0, 0
	}
	switch {
	case spread > bound && allBetter:
		c.verdict = "better"
	case spread > bound && allWorse && c.change > bound:
		c.verdict = "worse"
	case spread > bound:
		c.verdict = "unresolved"
	case c.won >= 0.9 && c.change < 0 && math.Abs(c.b.median-c.a.median) > noise:
		c.verdict = "better"
	case c.change > bound:
		c.verdict = "worse"
	default:
		c.verdict = "within bound"
	}
	return c
}

// relative is x as a share of |base|; a nonzero x over a zero base is
// infinite.
func relative(x, base float64) float64 {
	switch {
	case x == 0:
		return 0
	case base == 0:
		return math.Copysign(math.Inf(1), x)
	}
	return x / math.Abs(base)
}
