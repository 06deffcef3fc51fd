// Command perfiso-repro reproduces the paper's whole evaluation in one
// run: every registered experiment (Figs. 4–10, the §1 headline, and
// the repo's extensions) is decomposed into independent seeded cells
// and executed on a worker pool, so the wall clock is bounded by the
// slowest cell instead of the sum of all figures. Results are
// bit-identical at any worker count.
//
// It emits JSON/CSV artifacts under -results and renders the markdown
// reproduction report committed as RESULTS.md (drift-gated in CI).
//
// The run also shards across processes and machines without losing
// determinism (see internal/shard):
//
//	perfiso-repro manifest [-scale S] [-run REGEX] [-plan N]
//	perfiso-repro run -shard i/N [-partial FILE] [flags]
//	perfiso-repro merge -shards DIR [flags]
//
// manifest prints the cells of a filtered run to stdout without
// executing anything; run -shard i/N executes the i-th of N
// cost-balanced shards (zero-based) and writes a partial artifact;
// merge verifies a set of partials covers the manifest exactly and
// reassembles artifacts byte-identical to a single-process run.
//
// run and merge share one set of output flags (-results, -report,
// -tables) and one output path: the same artifacts, figures,
// timing.json and report, byte-identical whichever way the cells ran.
//
// Observability is opt-in and changes no committed artifact: run
// -stats folds hot-path counters plus phase and top-cell cost
// breakdowns into timing.json, run -trace writes a per-cell
// trace.jsonl (shards embed spans in their partials and merge
// reassembles the run-wide trace), and run -pprof-addr serves
// net/http/pprof for the duration of the run.
//
// ctl is the §4 local debugging client: it drives a live controller
// through a script of timed runtime commands while a colocation
// scenario runs (perfiso-repro ctl -script FILE [-qps Q] [-seconds S]).
//
// Usage:
//
//	perfiso-repro [run] [-list] [-run REGEX] [-scale test|paper]
//	              [-workers N] [-results DIR] [-report FILE]
//	              [-shard i/N] [-partial FILE] [-stats] [-trace]
//	              [-tables] [-quiet]
//
// Examples:
//
//	perfiso-repro -list
//	perfiso-repro -scale test                  # regenerate RESULTS.md + results/
//	perfiso-repro -run 'fig[45]|headline' -tables
//	perfiso-repro manifest -scale paper -plan 4
//	perfiso-repro run -scale test -shard 0/3
//	perfiso-repro merge -scale test -shards results/test/shards
//	perfiso-repro run -scale test -stats -trace
//	perfiso-repro ctl -script ops.txt -qps 2000 -seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
	"perfiso/internal/report"
	"perfiso/internal/shard"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive it. A bare
// flag list is the run subcommand, for compatibility with the
// pre-shard CLI.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, rest := args[0], args[1:]
		switch sub {
		case "run":
			return runCmd(rest, stdout, stderr)
		case "manifest":
			return manifestCmd(rest, stdout, stderr)
		case "merge":
			return mergeCmd(rest, stdout, stderr)
		case "report":
			return reportCmd(rest, stdout, stderr)
		case "tracecheck":
			return tracecheckCmd(rest, stdout, stderr)
		case "ctl":
			return ctlCmd(rest, stdout, stderr)
		default:
			fmt.Fprintf(stderr, "perfiso-repro: unknown subcommand %q (want run, manifest, merge, report, tracecheck or ctl)\n", sub)
			return 2
		}
	}
	return runCmd(args, stdout, stderr)
}

// parseScale resolves -scale.
func parseScale(name string, stderr io.Writer) (experiments.ScaleSpec, bool) {
	switch name {
	case "test":
		return experiments.TestSpec(), true
	case "paper":
		return experiments.PaperSpec(), true
	}
	fmt.Fprintf(stderr, "perfiso-repro: unknown scale %q\n", name)
	return experiments.ScaleSpec{}, false
}

// parseShard parses -shard "i/N" (zero-based i). The whole token must
// parse — trailing garbage would silently run the wrong partition.
func parseShard(s string) (idx, count int, err error) {
	is, ns, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(is)
		if err == nil {
			count, err = strconv.Atoi(ns)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q, want i/N (e.g. 0/3)", s)
	}
	if count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("bad -shard %q: index must be in [0, %d)", s, count)
	}
	return idx, count, nil
}

// topCellsN bounds the per-cell cost breakdown folded into timing.json
// by -stats.
const topCellsN = 10

// startPprof serves the net/http/pprof handlers under /debug/pprof/
// on their own listener when addr is non-empty. The returned stop
// closes the server; a requested-but-unbindable endpoint is a loud
// failure, never silent.
func startPprof(addr string, stderr io.Writer) (stop func(), ok bool) {
	if addr == "" {
		return func() {}, true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: -pprof-addr %s: %v\n", addr, err)
		return nil, false
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return func() { srv.Close() }, true
}

// simtraceFileName maps one cell to its trace file name. Cell names
// carry '/', '%' and spaces; everything outside a conservative
// filename-safe set becomes '-'.
func simtraceFileName(exp, cell string) string {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '=', r == '.', r == '-', r == '_':
				b.WriteRune(r)
			default:
				b.WriteByte('-')
			}
		}
		return b.String()
	}
	return sanitize(exp) + "--" + sanitize(cell) + ".json"
}

// statsTracking turns counting on for the duration of a run: it
// installs a recording as the process-wide default, which every
// finished cell folds its counters into, and turns on RNG draw
// accounting. The returned stop removes both.
func statsTracking(enabled bool) (rec *obs.Recording, stop func()) {
	if !enabled {
		return nil, func() {}
	}
	rec = obs.NewRecording()
	obs.SetDefault(rec)
	sim.ResetRNGDraws()
	sim.SetRNGAccounting(true)
	return rec, func() {
		sim.SetRNGAccounting(false)
		obs.SetDefault(nil)
	}
}

// figureLinks maps rendered figures to their canonical report links.
// The path is always results/<scale>/figures/<name>.svg regardless of
// -results, so reports from different artifact directories (or with
// artifacts disabled) stay byte-identical.
func figureLinks(scale string, figs []report.Figure) []experiments.FigureLink {
	links := make([]experiments.FigureLink, len(figs))
	for i, f := range figs {
		links[i] = experiments.FigureLink{
			Name:  f.Name,
			Title: f.Title,
			Path:  "results/" + scale + "/figures/" + f.Name + ".svg",
		}
	}
	return links
}

// outputFlags are the output flags run and merge share.
type outputFlags struct {
	fs         *flag.FlagSet
	resultsDir *string
	reportPath *string
	tables     *bool
}

func addOutputFlags(fs *flag.FlagSet) outputFlags {
	return outputFlags{
		fs:         fs,
		resultsDir: fs.String("results", "results", "artifact directory (empty disables)"),
		reportPath: fs.String("report", "RESULTS.md", "reproduction report path (empty disables)"),
		tables:     fs.Bool("tables", false, "print each experiment's table to stdout"),
	}
}

// emit is the one output path of run and merge.
// It folds the -stats counters (rec; nil leaves the timing untouched,
// so the sidecar stays byte-compatible with uninstrumented runs), the
// phase breakdown and the most expensive cells into the timing, prints
// the run, and writes the deterministic artifacts (including the
// rendered figures), timing.json, trace.jsonl when spans is non-empty,
// and the markdown report. Explicit-flag guards keep filtered or
// paper-scale runs from clobbering the committed outputs.
func (o outputFlags) emit(res experiments.RunResult, timing experiments.RunTiming, rec *obs.Recording,
	filterActive bool, spans []obs.Span, stdout, stderr io.Writer) int {
	if rec != nil {
		s := rec.Snapshot()
		s.RNGDraws = sim.RNGDraws()
		timing.Stats = &s
		timing.Phases = res.Phases
		timing.TopCells = experiments.TopCells(res.CellTimings, topCellsN)
	}
	printRun(res, timing, *o.tables, stdout)

	explicit := map[string]bool{}
	o.fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	spec := res.Spec
	// Figures render in-memory from the run itself so the report embeds
	// the same links whether or not artifacts are written.
	figs := report.Figures(report.DatasetOf(res))
	if resultsDir := *o.resultsDir; resultsDir != "" {
		if filterActive && !explicit["results"] {
			fmt.Fprintf(stderr, "perfiso-repro: -run filter active; not overwriting %s/%s (pass -results to force)\n", resultsDir, spec.Name)
		} else {
			dir := filepath.Join(resultsDir, spec.Name)
			if err := experiments.WriteArtifacts(dir, res); err != nil {
				fmt.Fprintf(stderr, "perfiso-repro: writing artifacts: %v\n", err)
				return 1
			}
			if err := experiments.WriteJSONFile(filepath.Join(dir, "timing.json"), timing); err != nil {
				fmt.Fprintf(stderr, "perfiso-repro: writing timing: %v\n", err)
				return 1
			}
			if err := report.WriteFigures(dir, figs); err != nil {
				fmt.Fprintf(stderr, "perfiso-repro: writing figures: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s, %s, %s, %s, %s and %s (%d figures)\n",
				filepath.Join(dir, "summary.json"), filepath.Join(dir, "cells.csv"),
				filepath.Join(dir, "series.csv"), filepath.Join(dir, "forensics.csv"),
				filepath.Join(dir, "timing.json"),
				filepath.Join(dir, "figures"), len(figs))
			if len(spans) > 0 {
				err := experiments.WriteAtomic(filepath.Join(dir, "trace.jsonl"), func(w io.Writer) error {
					return obs.WriteJSONL(w, spans)
				})
				if err != nil {
					fmt.Fprintf(stderr, "perfiso-repro: writing trace: %v\n", err)
					return 1
				}
				fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(dir, "trace.jsonl"))
			}
		}
	}

	if reportPath := *o.reportPath; reportPath != "" {
		// The committed RESULTS.md is the full test-scale report, so a
		// paper-scale run must not overwrite it by default either.
		switch {
		case filterActive && !explicit["report"]:
			fmt.Fprintf(stderr, "perfiso-repro: -run filter active; not overwriting %s (pass -report to force)\n", reportPath)
		case spec.Name != "test" && !explicit["report"]:
			fmt.Fprintf(stderr, "perfiso-repro: -scale %s; not overwriting the test-scale %s (pass -report to force)\n", spec.Name, reportPath)
		default:
			md := experiments.RenderMarkdownWith(res, experiments.ReportOptions{
				Figures: figureLinks(spec.Name, figs),
			})
			if err := writeString(reportPath, md); err != nil {
				fmt.Fprintf(stderr, "perfiso-repro: writing report: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", reportPath)
		}
	}
	return 0
}

// writeString writes s to path through experiments.WriteAtomic.
func writeString(path, s string) error {
	return experiments.WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	})
}

// reportCmd re-renders the figures (and the report's figure gallery)
// from the committed CSV artifacts alone — no simulation. Because the
// CSVs round-trip floats exactly, the bytes match what the original
// run wrote.
func reportCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfiso-repro report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "test", `experiment scale: "test" or "paper"`)
	resultsDir := fs.String("results", "results", "artifact directory holding <scale>/cells.csv and <scale>/series.csv")
	reportPath := fs.String("report", "RESULTS.md", "report whose figure gallery to refresh (empty disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := parseScale(*scaleName, stderr)
	if !ok {
		return 2
	}
	dir := filepath.Join(*resultsDir, spec.Name)
	ds, err := report.LoadDir(dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 1
	}
	figs := report.Figures(ds)
	if err := report.WriteFigures(dir, figs); err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: writing figures: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d figures)\n", filepath.Join(dir, "figures"), len(figs))

	if *reportPath != "" {
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if spec.Name != "test" && !explicit["report"] {
			fmt.Fprintf(stderr, "perfiso-repro: -scale %s; not patching the test-scale %s (pass -report to force)\n", spec.Name, *reportPath)
			return 0
		}
		md, err := os.ReadFile(*reportPath)
		if err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
			return 1
		}
		patched, ok := experiments.PatchFigureBlock(string(md), figureLinks(spec.Name, figs))
		if !ok {
			fmt.Fprintf(stderr, "perfiso-repro: %s has no figure block to patch — regenerate it with `perfiso-repro -scale %s`\n", *reportPath, spec.Name)
			return 1
		}
		if err := writeString(*reportPath, patched); err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: writing report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "patched figure gallery in %s\n", *reportPath)
	}
	return 0
}

// tracecheckCmd validates Chrome trace-event JSON emitted by run
// -simtrace: parseable, known phases only, every async end matching an
// open begin, and per-track monotone timestamps. Arguments name trace
// files or directories of them (*.json).
func tracecheckCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfiso-repro tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintf(stderr, "perfiso-repro: tracecheck needs trace files or directories (e.g. results/test/simtrace)\n")
		return 2
	}
	var paths []string
	for _, arg := range fs.Args() {
		info, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
			return 1
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
			return 1
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				paths = append(paths, filepath.Join(arg, e.Name()))
			}
		}
	}
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "perfiso-repro: tracecheck found no .json traces\n")
		return 1
	}
	bad := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = simtrace.ValidateChrome(data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %s: %v\n", p, err)
			bad++
		}
	}
	fmt.Fprintf(stdout, "validated %d trace files (%d invalid)\n", len(paths), bad)
	if bad > 0 {
		return 1
	}
	return 0
}

// printRun summarizes a run on stdout like the pre-shard CLI.
func printRun(res experiments.RunResult, timing experiments.RunTiming, tables bool, stdout io.Writer) {
	for _, e := range res.Experiments {
		fmt.Fprintf(stdout, "%-22s %2d cells  %6.2fs cell time\n", e.Name, len(e.CellNames), e.CellSeconds)
		if tables {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, e.Report.Table)
		}
	}
	speedup := 1.0
	if timing.ElapsedSeconds > 0 {
		speedup = timing.SequentialSeconds / timing.ElapsedSeconds
	}
	fmt.Fprintf(stdout, "total: %d cells (%d shared) in %.2fs wall (%.2fs sequential-equivalent, %.1f× speedup)\n",
		res.CellCount, res.SharedCells, timing.ElapsedSeconds, timing.SequentialSeconds, speedup)
}

// runCmd is the (default) run subcommand: the whole filtered
// evaluation in-process, or one shard of it with -shard i/N.
func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfiso-repro run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered experiments and exit")
	runPat := fs.String("run", "", "regexp selecting experiments to run (default: all)")
	scaleName := fs.String("scale", "test", `experiment scale: "test" or "paper"`)
	workers := fs.Int("workers", 0, "cell worker-pool size (0 = GOMAXPROCS)")
	out := addOutputFlags(fs)
	shardSpec := fs.String("shard", "", "execute one shard i/N (zero-based) and write a partial artifact instead of reports")
	partialPath := fs.String("partial", "", "partial artifact path for -shard (default results/<scale>/shards/shard-<i>-of-<N>.json)")
	stats := fs.Bool("stats", false, "count sim, controller and scheduler decisions per cell and fold them (plus phase and top-cell cost breakdowns) into timing.json; not with -shard, whose partial carries no counters")
	traceFlag := fs.Bool("trace", false, "collect one span per executed cell; full runs write trace.jsonl next to timing.json, -shard embeds the spans in the partial")
	simtraceFlag := fs.Bool("simtrace", false, "write per-cell sim-domain Chrome trace-event JSON under results/<scale>/simtrace/ (in-process pool only)")
	pprofAddr := fs.String("pprof-addr", "", "expose net/http/pprof on this address for the duration of the run (empty disables)")
	quiet := fs.Bool("quiet", false, "suppress per-cell progress on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *simtraceFlag && *shardSpec != "" {
		fmt.Fprintf(stderr, "perfiso-repro: -simtrace needs the in-process pool (trace events do not ride shard partials)\n")
		return 2
	}
	if *stats && *shardSpec != "" {
		fmt.Fprintf(stderr, "perfiso-repro: -stats needs a full run (a shard writes only its partial, which carries no counters)\n")
		return 2
	}
	if *simtraceFlag && *out.resultsDir == "" {
		fmt.Fprintf(stderr, "perfiso-repro: -simtrace with -results \"\" has nowhere to write traces\n")
		return 2
	}

	spec, ok := parseScale(*scaleName, stderr)
	if !ok {
		return 2
	}

	reg := experiments.DefaultRegistry()
	if *list {
		for _, name := range reg.Names() {
			e, _ := reg.Get(name)
			fmt.Fprintf(stdout, "%-22s %2d cells  %s\n", name, len(e.Cells(spec)), e.Describe)
		}
		return 0
	}

	if _, err := regexp.Compile(*runPat); err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: bad -run pattern: %v\n", err)
		return 2
	}

	var onCell func(exp, cell string, elapsed time.Duration)
	if !*quiet {
		onCell = func(exp, cell string, elapsed time.Duration) {
			fmt.Fprintf(stderr, "done %s/%s (%.2fs)\n", exp, cell, elapsed.Seconds())
		}
	}

	// Counters and tracers observe without participating: the seeded
	// simulations never read them, so summary.json, cells.csv and
	// RESULTS.md come out byte-identical with or without
	// -stats/-trace/-simtrace.
	rec, stopStats := statsTracking(*stats)
	defer stopStats()
	var tracer *obs.TraceBuffer
	if *traceFlag {
		tracer = obs.NewTraceBuffer()
	}
	stopPprof, okPprof := startPprof(*pprofAddr, stderr)
	if !okPprof {
		return 1
	}
	defer stopPprof()

	if *shardSpec != "" {
		idx, count, err := parseShard(*shardSpec)
		if err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
			return 2
		}
		// Resolve the output path before running anything — a flag
		// mistake must not cost a finished shard.
		path := *partialPath
		if path == "" {
			if *out.resultsDir == "" {
				fmt.Fprintf(stderr, "perfiso-repro: -shard with -results \"\" needs an explicit -partial path\n")
				return 2
			}
			path = filepath.Join(*out.resultsDir, spec.Name, "shards",
				fmt.Sprintf("shard-%d-of-%d.json", idx, count))
		}
		p, err := shard.RunShard(reg, shard.RunShardOptions{
			Spec:    spec,
			Filter:  *runPat,
			Shard:   idx,
			Shards:  count,
			Workers: *workers,
			OnCell:  onCell,
			Trace:   *traceFlag,
		})
		if err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
			return 2
		}
		if err := shard.WritePartial(path, p); err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: writing partial: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "shard %d/%d: %d cells in %.2fs (manifest %s)\nwrote %s\n",
			idx, count, len(p.Cells), p.ElapsedSeconds, p.ManifestHash, path)
		return 0
	}

	// The manifest hash stamps the artifacts' provenance, and the plan
	// it hashes is the one that runs; building it also turns a
	// zero-match -run pattern into a loud failure (exit 2) listing the
	// valid names. Failures past this point are runtime errors (exit 1).
	plan, m, err := shard.BuildPlan(reg, spec, *runPat)
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 2
	}

	runOpts := experiments.RunOptions{Workers: *workers, OnCell: onCell, Tracer: tracer}
	var simErr error
	simCount := 0
	simDir := filepath.Join(*out.resultsDir, spec.Name, "simtrace")
	if *simtraceFlag {
		if err := os.MkdirAll(simDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
			return 1
		}
		// The pool calls this as each traced cell ends, one call at a
		// time, and drops the tracer after it, so at most -workers
		// traces are held at once. File contents do not depend on the
		// order; the first write error skips the remaining files.
		runOpts.OnSimTrace = func(exp, cell string, tr *simtrace.Tracer) {
			if simErr != nil || tr.Len() == 0 {
				return
			}
			simErr = experiments.WriteAtomic(filepath.Join(simDir, simtraceFileName(exp, cell)), func(w io.Writer) error {
				return simtrace.WriteChrome(w, tr)
			})
			if simErr == nil {
				simCount++
			}
		}
	}

	res, err := plan.Run(runOpts)
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 2
	}
	if simErr != nil {
		fmt.Fprintf(stderr, "perfiso-repro: writing sim traces: %v\n", simErr)
		return 1
	}
	if *simtraceFlag {
		fmt.Fprintf(stdout, "wrote %d sim traces under %s\n", simCount, simDir)
	}
	res.ManifestHash = m.Hash
	var spans []obs.Span
	if tracer != nil {
		spans = tracer.Spans()
	}
	return out.emit(res, experiments.TimingOf(res), rec, *runPat != "", spans, stdout, stderr)
}

// manifestCmd prints the cell manifest (or a shard plan of it) to
// stdout without executing anything.
func manifestCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfiso-repro manifest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runPat := fs.String("run", "", "regexp selecting experiments (default: all)")
	scaleName := fs.String("scale", "test", `experiment scale: "test" or "paper"`)
	planN := fs.Int("plan", 0, "emit the N-shard plan instead of the manifest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := parseScale(*scaleName, stderr)
	if !ok {
		return 2
	}
	m, err := shard.Build(experiments.DefaultRegistry(), spec, *runPat)
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 2
	}
	var v any = m
	if *planN != 0 {
		if v, err = shard.PlanShards(m, *planN); err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
			return 2
		}
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		_, err = stdout.Write(append(blob, '\n'))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 1
	}
	return 0
}

// mergeCmd reassembles a run from shard partials and emits the same
// outputs as a single-process run.
func mergeCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfiso-repro merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runPat := fs.String("run", "", "regexp the shards were run with (default: all)")
	scaleName := fs.String("scale", "test", `experiment scale: "test" or "paper"`)
	shardsDir := fs.String("shards", "", "directory holding the shard partials (*.json); positional args name individual partials")
	out := addOutputFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := parseScale(*scaleName, stderr)
	if !ok {
		return 2
	}

	var partials []shard.Partial
	switch {
	case *shardsDir != "" && fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfiso-repro: pass either -shards DIR or positional partial paths, not both\n")
		return 2
	case *shardsDir != "":
		var err error
		if partials, err = shard.ReadPartialsDir(*shardsDir); err != nil {
			fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
			return 2
		}
	case fs.NArg() > 0:
		for _, path := range fs.Args() {
			p, err := shard.ReadPartial(path)
			if err != nil {
				fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
				return 2
			}
			partials = append(partials, p)
		}
	default:
		fmt.Fprintf(stderr, "perfiso-repro: merge needs -shards DIR or partial paths\n")
		return 2
	}

	plan, m, err := shard.BuildPlan(experiments.DefaultRegistry(), spec, *runPat)
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 2
	}
	res, timing, err := shard.Merge(plan, m, partials)
	if err != nil {
		fmt.Fprintf(stderr, "perfiso-repro: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "merged %d shards covering %d cells (%d shared), manifest %s\n",
		len(partials), res.CellCount+res.SharedCells, res.SharedCells, res.ManifestHash)
	// Shards run with -trace embed spans in their partials; the merge
	// reassembles them into the run-wide trace automatically.
	return out.emit(res, timing, nil, *runPat != "", shard.CollectSpans(partials), stdout, stderr)
}
