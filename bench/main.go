// Command bench is the repository's benchmark. One run executes one
// workload's fixed batch of seeded simulation cells on a pool of two
// workers, checks every cell's output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 16, "failed": 0, "metrics": {"wall_s": {"value": 9.81, "unit": "s"}, ...}}
//
// Untraced runs (-trace 0) print the end-to-end metrics; traced runs
// (-trace 1) repeat the work under a CPU profile, the obs recording
// tracker and runtime/metrics, and print the per-layer metrics.
//
//	bash bench/run.sh -workload colocated -seed 1
//	bash bench/run.sh -workload colocated -seed 1 -trace 1
//	bash bench/run.sh compare A1.out A2.out -- B1.out B2.out
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the cell-pool size and GOMAXPROCS of every run: the
// reference host has two CPUs, and fixing both keeps runs comparable
// across hosts with more.
const workers = 2

// setupReps is how many times a run sets its workload up before the
// timed phase; setup_s is their median. Set-up takes microseconds to a
// millisecond, so one timing would mostly measure the host.
const setupReps = 51

// buildDir holds everything a run writes (profiles, span logs, the
// repro-test artifacts). run.sh builds the binary there too.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; cell i simulates seed+i")
	// Workloads are fixed work of about BENCHMARK.json's run_seconds (10)
	// on the reference host, so both commits of a comparison simulate the
	// same events; the flag is checked but does not resize them.
	seconds := fs.Int("seconds", 10, "run length the workloads are sized for; must be >= 1")
	trace := fs.Int("trace", 0, "1 repeats the run traced and prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "bench: unknown -workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "bench: -seconds %d, want >= 1\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: -trace %d, want 0 or 1\n", *trace)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	// The goldens and the build directory live at the checkout root,
	// which is where run.sh runs the binary from.
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err != nil {
		fmt.Fprintf(stderr, "bench: run from the repository root (bash bench/run.sh ...): %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(workers)

	cfg := config{
		workload: w,
		seed:     *seed,
		trace:    *trace == 1,
		golden:   ".",
		work:     buildDir,
	}
	out, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := out.print(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// config is one benchmark run.
type config struct {
	workload workload
	seed     uint64
	trace    bool
	// golden is the directory holding results/test and RESULTS.md, the
	// committed outputs repro-test compares against at seed 2017.
	golden string
	// work is where the run writes its artifacts, profile and spans.
	work string
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is the line before the result: what ran, on which host, the
// workload's simulated outcomes and the digest of every simulated
// result. compare reads it to group runs and judge the outcomes.
type meta struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Cells is the number of cells cell_p50_s is the median of.
	Cells     int                `json:"cells"`
	Outcomes  map[string]float64 `json:"outcomes"`
	SimDigest string             `json:"sim_digest"`
	Host      host               `json:"host"`
}

// output is everything a run prints.
type output struct {
	meta     meta
	result   result
	failures []string
}

func (o output) print(w io.Writer) error {
	h := o.meta.Host
	fmt.Fprintf(w, "host: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n", h.Go, h.GOMAXPROCS, h.NumCPU, h.CPU, h.Commit)
	fmt.Fprintf(w, "workload %s seed %d: %d cells, %d/%d ops failed, sim_digest %s\n",
		o.meta.Workload, o.meta.Seed, o.meta.Cells, o.result.Failed, o.result.Attempted, o.meta.SimDigest)
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	names := make([]string, 0, len(o.result.Metrics))
	for n := range o.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.result.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, d := range outcomeMetrics {
		if v, ok := o.meta.Outcomes[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s (outcome)\n", d.Name, v, d.Unit)
		}
	}
	for _, v := range []any{o.meta, o.result} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

// measure sets the workload up setupReps times, runs its timed pass
// and, with cfg.trace, a second traced pass; then it folds both into
// the printed metrics.
func measure(cfg config, log io.Writer) (output, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return output{}, err
	}
	var job job
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		start := time.Now() //perfiso:allow walltime benchmark host timing
		j, err := cfg.workload.setup(cfg, nil)
		setups[i] = time.Since(start).Seconds() //perfiso:allow walltime benchmark host timing
		if err != nil {
			return output{}, fmt.Errorf("%s setup: %w", cfg.workload.name, err)
		}
		job = j
	}

	runtime.GC()
	allocBefore := readRuntime()
	p := job(nil)
	allocMB := (readRuntime().allocBytes - allocBefore.allocBytes) / 1e6
	fmt.Fprintf(log, "bench: %s seed %d: %d cells in %.2fs\n", cfg.workload.name, cfg.seed, len(p.cellSec), p.wall)

	// A traced run reports the traced pass's ops, plus one checking
	// that tracing left every simulated outcome unchanged.
	checked := p
	var ms map[string]metric
	if cfg.trace {
		tp, q, err := traced(cfg, log)
		if err != nil {
			return output{}, err
		}
		var same error
		if tp.digest != p.digest {
			same = fmt.Errorf("sim_digest %s, untraced %s", tp.digest, p.digest)
		}
		tp.op("traced pass simulates what the untraced pass does", same)
		ms = perLayer(tp, q, p.wall)
		checked = tp
	} else {
		ms = endToEnd(setups, p, allocMB)
	}
	return output{
		meta: meta{
			Workload:  cfg.workload.name,
			Seed:      cfg.seed,
			Trace:     cfg.trace,
			Cells:     len(p.cellSec),
			Outcomes:  p.outcomes(),
			SimDigest: p.digest,
			Host:      fingerprint(),
		},
		result: result{
			Correct:   checked.failed == 0,
			Attempted: checked.attempted,
			Failed:    checked.failed,
			Metrics:   ms,
		},
		failures: checked.failures,
	}, nil
}

// endToEnd projects an untraced run onto the end-to-end metrics.
func endToEnd(setups []float64, p pass, allocMB float64) map[string]metric {
	// Every workload reports the primary's latency; a pass whose cells
	// all failed reads 0, and its failed ops say why.
	p50, _ := p.value("primary_p50_ms")
	p99, _ := p.value("primary_p99_ms")
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"wall_s":         {p.wall, "s"},
		"cell_p50_s":     {median(p.cellSec), "s"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"alloc_mb":       {allocMB, "MB"},
		"primary_p50_ms": {p50, "ms"},
		"primary_p99_ms": {p99, "ms"},
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// runtimeSample is the subset of runtime/metrics the benchmark reads.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles, gcCPUSeconds float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3]}
}

// host identifies the machine and build a run measured.
type host struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        "unknown",
		Commit:     "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// median is the middle value (mean of the two middle values for even
// counts); 0 for an empty slice, as when a failed pass timed no cells.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
