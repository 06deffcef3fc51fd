package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"perfiso/internal/cluster"
	"perfiso/internal/obs"
)

// jsonExperiment is the artifact projection of one experiment.
type jsonExperiment struct {
	Name     string    `json:"name"`
	Describe string    `json:"describe"`
	Cells    []jsonRow `json:"cells"`
	Table    string    `json:"table"`
}

type jsonRow struct {
	Cell    string             `json:"cell"`
	Metrics map[string]float64 `json:"metrics"`
}

type jsonArtifact struct {
	Scale        string           `json:"scale"`
	ManifestHash string           `json:"manifest_hash,omitempty"`
	CellCount    int              `json:"cell_count"`
	SharedCells  int              `json:"shared_cells"`
	Experiments  []jsonExperiment `json:"experiments"`
}

// WriteAtomic writes a file through write into path+".tmp", closes it
// and renames it over path. A failed or killed run leaves no partial
// file at path, and on any error the temp file is removed. The temp
// name does not end in .json, so a reader globbing *.json never sees
// one. Every artifact writer goes through it.
func WriteAtomic(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// WriteJSONFile writes v as indented JSON plus a newline through
// WriteAtomic, creating parent directories — the encoding of
// summary.json, timing.json, cell manifests and shard partials.
func WriteJSONFile(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(blob, '\n'))
		return err
	})
}

// WriteArtifacts writes the run's deterministic machine-readable
// artifacts under dir: summary.json (every cell metric plus the
// rendered tables), cells.csv (long-format
// experiment,cell,metric,value rows), series.csv (long-format
// experiment,cell,series,unit,t,value time-series rows) and
// forensics.csv (long-format experiment,cell,quantile,stat,value
// tail-blame rows). All are pure
// functions of the simulation results, so a merged sharded run
// reproduces them byte-for-byte; wall-clock and worker-count fields
// live in timing.json, which carries no such guarantee.
func WriteArtifacts(dir string, res RunResult) error {
	art := jsonArtifact{
		Scale:        res.Spec.Name,
		ManifestHash: res.ManifestHash,
		CellCount:    res.CellCount,
		SharedCells:  res.SharedCells,
	}
	var csv strings.Builder
	csv.WriteString("experiment,cell,metric,value\n")
	for _, e := range res.Experiments {
		je := jsonExperiment{Name: e.Name, Describe: e.Describe, Table: e.Report.Table}
		for _, row := range e.Report.Rows {
			jr := jsonRow{Cell: row.Cell, Metrics: map[string]float64{}}
			for _, m := range row.Metrics {
				jr.Metrics[m.Name] = m.Value
				fmt.Fprintf(&csv, "%s,%s,%s,%s\n", e.Name, row.Cell, m.Name,
					strconv.FormatFloat(m.Value, 'g', -1, 64))
			}
			je.Cells = append(je.Cells, jr)
		}
		art.Experiments = append(art.Experiments, je)
	}

	if err := WriteJSONFile(filepath.Join(dir, "summary.json"), art); err != nil {
		return err
	}
	for _, f := range []struct{ name, body string }{
		{"cells.csv", csv.String()},
		{"series.csv", RenderSeriesCSV(res)},
		{"forensics.csv", RenderForensicsCSV(res)},
	} {
		err := WriteAtomic(filepath.Join(dir, f.name), func(w io.Writer) error {
			_, err := io.WriteString(w, f.body)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RenderSeriesCSV renders the run's time-series artifact: one row per
// sampled point, in experiment → cell → track → time order. Floats
// use the shortest round-trippable representation, so re-parsing the
// file reproduces the in-memory values exactly — the property the
// figure renderer relies on to make CSV-fed and live-run figures
// byte-identical.
func RenderSeriesCSV(res RunResult) string {
	var csv strings.Builder
	csv.WriteString("experiment,cell,series,unit,t,value\n")
	for _, e := range res.Experiments {
		for _, sr := range e.Report.Series {
			for _, tr := range sr.Tracks {
				for _, p := range tr.Points {
					fmt.Fprintf(&csv, "%s,%s,%s,%s,%s,%s\n", e.Name, sr.Cell, tr.Name, tr.Unit,
						strconv.FormatFloat(p.T, 'g', -1, 64),
						strconv.FormatFloat(p.V, 'g', -1, 64))
				}
			}
		}
	}
	return csv.String()
}

// ShardTiming records one shard's execution in a merged run.
type ShardTiming struct {
	Shard          int     `json:"shard"`
	Shards         int     `json:"shards"`
	Workers        int     `json:"workers"`
	Cells          int     `json:"cells"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// CellTiming is one cell's wall-clock cost within a run.
type CellTiming struct {
	Experiment string `json:"experiment"`
	Cell       string `json:"cell"`
	// Worker identifies who executed the cell: the pool goroutine
	// ("pool/<i>") of an in-process run, or the shard ("shard-<i>/<N>")
	// of a merged one.
	Worker  string  `json:"worker,omitempty"`
	Seconds float64 `json:"seconds"`
}

// PhaseTiming is the wall time of one run phase (enumerate, execute,
// assemble, report).
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// TopCells returns the n most expensive cells, most expensive first
// (ties broken by experiment/cell for determinism). The input is not
// modified.
func TopCells(cells []CellTiming, n int) []CellTiming {
	out := make([]CellTiming, len(cells))
	copy(out, cells)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Seconds != out[b].Seconds {
			return out[a].Seconds > out[b].Seconds
		}
		if out[a].Experiment != out[b].Experiment {
			return out[a].Experiment < out[b].Experiment
		}
		return out[a].Cell < out[b].Cell
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// RunTiming is the non-deterministic side of a run — wall clocks,
// worker counts and, for merged runs, the shard layout. It is written
// as timing.json next to the deterministic artifacts and deliberately
// excluded from the byte-identical guarantee.
type RunTiming struct {
	// Source is "single" for an in-process run or "merged" for a run
	// reassembled from shard partials.
	Source            string        `json:"source"`
	Workers           int           `json:"workers,omitempty"`
	ElapsedSeconds    float64       `json:"elapsed_seconds"`
	SequentialSeconds float64       `json:"sequential_seconds"`
	Shards            []ShardTiming `json:"shards,omitempty"`
	// Phases breaks the run's wall time down by phase (populated with
	// -stats).
	Phases []PhaseTiming `json:"phases,omitempty"`
	// TopCells lists the most expensive cells by wall time (populated
	// with -stats).
	TopCells []CellTiming `json:"top_cells,omitempty"`
	// Stats is the run-wide recording's counter snapshot (populated
	// with -stats).
	Stats *obs.Snapshot `json:"stats,omitempty"`
	// Host is the machine and build that ran the cells, recorded when
	// they all ran in this process; a merged run's shards may have run
	// anywhere.
	Host *Host `json:"host,omitempty"`
}

// TimingOf projects a single-process run's timing.
func TimingOf(res RunResult) RunTiming {
	h := HostOf()
	return RunTiming{
		Source:            "single",
		Workers:           res.Workers,
		ElapsedSeconds:    res.Elapsed.Seconds(),
		SequentialSeconds: res.SequentialSeconds,
		Host:              &h,
	}
}

// comparison is one paper-vs-reproduced row of the report. Rows whose
// claim reduces to one headline number also carry the numeric pair
// (PaperVal, GotVal) so the report can print a relative error next to
// the shape-band Match; rows asserting a shape only (orderings,
// ranges) leave HasRel unset and show "—".
type comparison struct {
	Figure     string
	Paper      string
	Reproduced string
	Match      bool
	HasRel     bool
	PaperVal   float64
	GotVal     float64
}

// RelErr is |got − paper| / |paper|, the value of the report's
// relative-error column.
func (c comparison) RelErr() float64 {
	if !c.HasRel || c.PaperVal == 0 {
		return 0
	}
	return math.Abs(c.GotVal-c.PaperVal) / math.Abs(c.PaperVal)
}

// DefaultTolerance is the relative-error band marking a paper-vs-
// reproduced row out-of-band (⚠) in the report. It is deliberately
// loose: the simulator reproduces shapes, not the Bing testbed's
// absolute numbers.
const DefaultTolerance = 0.25

// relErrCell renders one row's relative-error column.
func relErrCell(c comparison) string {
	if !c.HasRel {
		return "—"
	}
	cell := fmt.Sprintf("%.0f%%", 100*c.RelErr())
	if c.RelErr() > DefaultTolerance {
		cell += " ⚠"
	}
	return cell
}

func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}

// missing is the loud row a comparison becomes when a cell it probes
// is absent (a sweep or policy list changed) or measured nothing:
// Match ✗ instead of comparing zero values and passing.
func missing(figure, what string) comparison {
	return comparison{
		Figure:     figure,
		Paper:      what,
		Reproduced: "probed cell missing — an experiment's cells changed; update its comparison",
		Match:      false,
	}
}

// comparisons derives the paper-vs-reproduced table from the typed
// figure results present in the run. The match bands mirror the
// calibration tests: they assert the published shape, not the absolute
// testbed numbers.
func comparisons(res RunResult) []comparison {
	out := sweepComparisons(res, paperSweeps)

	if v, ok := res.Value("fig9").(Fig9); ok {
		s, c, d := v.Standalone.TLA.P99Ms, v.CPUBound.TLA.P99Ms, v.DiskBound.TLA.P99Ms
		out = append(out, comparison{
			Figure:     "Fig. 9",
			Paper:      "cluster tail preserved under PerfIso-managed CPU- and disk-bound secondaries (§6.2)",
			Reproduced: fmt.Sprintf("TLA P99: standalone %.2f ms, cpu-bound %.2f ms, disk-bound %.2f ms", s, c, d),
			Match:      s > 0 && c <= 1.5*s && d <= 1.5*s,
		})
	}

	if v, ok := res.Value("fig10").(cluster.ProductionResult); ok {
		out = append(out, comparison{
			Figure:     "Fig. 10",
			Paper:      "≈70% average CPU over a production hour with a stable tail (§6.3)",
			Reproduced: fmt.Sprintf("avg CPU %.1f%%, P99 avg %.1f ms / max %.1f ms", v.AvgCPUUsedPct, v.AvgP99ms, v.MaxP99ms),
			Match:      v.AvgCPUUsedPct >= 60 && v.AvgCPUUsedPct <= 80 && v.MaxP99ms <= 2*v.AvgP99ms,
			HasRel:     true, PaperVal: 70, GotVal: v.AvgCPUUsedPct,
		})
	}

	return out
}

// extensionSummaries one-lines the beyond-the-paper experiments.
func extensionSummaries(res RunResult) []comparison {
	var out []comparison

	if v, ok := res.Value("timeline").(TimelineResult); ok {
		out = append(out, comparison{
			Figure:     "timeline",
			Paper:      "DES cross-check of the Fig. 10 fluid model on one fully simulated machine",
			Reproduced: fmt.Sprintf("avg CPU %.1f%%, P99 avg %.1f ms / max %.1f ms over %d windows", v.AvgCPUUsedPct, v.AvgP99ms, v.MaxP99ms, len(v.Samples)),
			Match:      true,
		})
	}
	if v, ok := res.Value("fullstack").(FullStackResult); ok {
		out = append(out, comparison{
			Figure:     "fullstack",
			Paper:      "every governor engaged against CPU, disk, HDFS and network secondaries at once",
			Reproduced: fmt.Sprintf("P99 %.2f ms, drops %.2f%%, CPU used %.1f%% (secondary %.1f%%)", v.Latency.P99Ms, 100*v.DropRate, v.UsedPct, v.SecondaryPct),
			Match:      true,
		})
	}
	if v, ok := res.Value("harvest-frontier").(HarvestFrontier); ok && len(v.Points) > 0 {
		const what = "capacity-aware placement completes more batch tasks at matching primary P99"
		byName := map[string]HarvestPoint{}
		for _, p := range v.Points {
			byName[p.Policy] = p
		}
		rr, okRR := byName["round-robin"]
		aware, okAware := byName["harvest-aware"]
		if !okRR || !okAware {
			out = append(out, missing("harvest-frontier", what))
		} else {
			out = append(out, comparison{
				Figure:     "harvest-frontier",
				Paper:      what,
				Reproduced: fmt.Sprintf("tasks: round-robin %d vs harvest-aware %d; server P99 %.2f vs %.2f ms", rr.TasksCompleted, aware.TasksCompleted, rr.Server.P99Ms, aware.Server.P99Ms),
				Match:      true,
			})
		}
	}
	out = append(out, sweepComparisons(res, ablationSweeps)...)
	if v, ok := res.Value("harvest-trace-frontier").(HarvestTraceFrontier); ok && len(v.Points) > 0 {
		const what = "placement frontier holds under a replayed bursty, heavy-tailed batch trace"
		synth, okS := v.Point("harvest-aware", "synthetic")
		traced, okT := v.Point("harvest-aware", "trace")
		if !okS || !okT {
			out = append(out, missing("harvest-trace-frontier", what))
		} else {
			out = append(out, comparison{
				Figure:     "harvest-trace-frontier",
				Paper:      what,
				Reproduced: fmt.Sprintf("harvest-aware tasks: synthetic %d vs trace %d; server P99 %.2f vs %.2f ms", synth.TasksCompleted, traced.TasksCompleted, synth.Server.P99Ms, traced.Server.P99Ms),
				Match:      true,
			})
		}
	}
	return out
}

// FigureLink is one rendered figure's entry in the report: Name is
// the file stem, Title the caption, Path the markdown image target.
// Paths are canonical (results/<scale>/figures/<name>.svg) regardless
// of where the artifacts were actually written, so reports from
// different -results directories stay byte-identical.
type FigureLink struct {
	Name  string
	Title string
	Path  string
}

// ReportOptions parameterizes RenderMarkdownWith beyond the run
// itself.
type ReportOptions struct {
	// Figures lists the rendered figures to embed, in order.
	Figures []FigureLink
}

// Figure-block markers: the `report` subcommand re-renders figures
// from the CSV artifacts alone and splices the block between these
// markers, byte-identical to a full re-run's render.
const (
	figuresBegin = "<!-- figures:begin -->"
	figuresEnd   = "<!-- figures:end -->"
)

// RenderFigureBlock renders the marker-delimited figure gallery.
func RenderFigureBlock(figs []FigureLink) string {
	var b strings.Builder
	b.WriteString(figuresBegin + "\n")
	for _, f := range figs {
		fmt.Fprintf(&b, "\n### %s\n\n![%s](%s)\n", f.Title, f.Title, f.Path)
	}
	b.WriteString("\n" + figuresEnd)
	return b.String()
}

// PatchFigureBlock replaces the marker-delimited figure block of an
// existing report with a freshly rendered one. It reports failure
// when the markers are missing (a report generated before figures
// existed, or hand-edited) — the caller should regenerate instead.
func PatchFigureBlock(md string, figs []FigureLink) (string, bool) {
	begin := strings.Index(md, figuresBegin)
	end := strings.Index(md, figuresEnd)
	if begin < 0 || end < begin {
		return md, false
	}
	return md[:begin] + RenderFigureBlock(figs) + md[end+len(figuresEnd):], true
}

// RenderMarkdownWith renders the reproduction report committed as
// RESULTS.md. The output is a pure function of the simulation results
// and options — no timings, timestamps or host details — so CI can
// regenerate it and fail on drift.
func RenderMarkdownWith(res RunResult, opts ReportOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# PerfIso reproduction report (scale: %s)\n\n", res.Spec.Name)
	b.WriteString(`Generated by ` + "`perfiso-repro`" + ` from the deterministic discrete-event
simulation — every cell below is bit-identical across runs, worker
counts and machines for a fixed seed. Absolute values differ from the
paper's Bing testbed (this is a simulator); the **Match** column asserts
the published *shape* using the same bands as the calibration tests.

`)
	b.WriteString("## How to regenerate\n\n")
	fmt.Fprintf(&b, "```\ngo run ./cmd/perfiso-repro -scale %s\n```\n\n", res.Spec.Name)
	b.WriteString(`This rewrites this file plus the JSON/CSV artifacts under ` + "`results/`" + `.
Useful flags: ` + "`-run 'fig[45]|headline'`" + ` filters experiments,
` + "`-workers N`" + ` sizes the cell pool (results are identical at any worker
count), ` + "`-scale paper`" + ` runs the full published trace sizes, and
` + "`-list`" + ` shows every registered experiment. The same run can be split
across machines: ` + "`perfiso-repro manifest`" + ` enumerates the cells,
` + "`perfiso-repro run -shard i/N`" + ` executes one cost-balanced shard, and
` + "`perfiso-repro merge -shards DIR`" + ` reassembles artifacts byte-identical
to a single-process run. CI regenerates this report at test scale —
single-process and via a 3-way shard merge — and fails if either
drifts from the committed copy.

`)

	if res.ManifestHash != "" {
		b.WriteString("## Provenance\n\n")
		fmt.Fprintf(&b, "Cell manifest `%s` · scale `%s` · %d experiments · %d cells (%d executed, %d shared by key).\n",
			res.ManifestHash, res.Spec.Name, len(res.Experiments),
			res.CellCount+res.SharedCells, res.CellCount, res.SharedCells)
		b.WriteString(`The manifest hash is a pure function of the registered experiments,
scale and filter, so it is identical whether this report came from one
process or from merged shards; ` + "`perfiso-repro manifest`" + ` prints the
manifest it covers.

`)
	}

	if cmps := comparisons(res); len(cmps) > 0 {
		b.WriteString("## Paper vs reproduced\n\n")
		fmt.Fprintf(&b, "**Rel. err** compares the row's headline number against the paper's, where\nthe claim reduces to one; values above ±%.0f%% are flagged ⚠.\nShape-only rows show —.\n\n", 100*DefaultTolerance)
		b.WriteString("| Figure | Paper | Reproduced | Rel. err | Match |\n|---|---|---|---|---|\n")
		for _, c := range cmps {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", c.Figure, c.Paper, c.Reproduced, relErrCell(c), mark(c.Match))
		}
		b.WriteString("\n")
	}

	if exts := extensionSummaries(res); len(exts) > 0 {
		b.WriteString("## Extensions beyond the paper\n\n")
		b.WriteString("| Experiment | What it shows | Reproduced |\n|---|---|---|\n")
		for _, c := range exts {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", c.Figure, c.Paper, c.Reproduced)
		}
		b.WriteString("\n")
	}

	if len(opts.Figures) > 0 {
		b.WriteString("## Figures\n\n")
		b.WriteString(`Rendered by the deterministic SVG pipeline (` + "`internal/report`" + `) from
the committed CSV artifacts — bit-identical across runs, worker counts
and shard merges, and drift-gated by CI like every other
artifact. Re-render without re-simulating via ` + "`perfiso-repro report`" + `.

`)
		b.WriteString(RenderFigureBlock(opts.Figures))
		b.WriteString("\n\n")
	}

	b.WriteString("## Full tables\n")
	for _, e := range res.Experiments {
		fmt.Fprintf(&b, "\n### %s — %s\n\n", e.Name, e.Describe)
		b.WriteString("```text\n")
		b.WriteString(strings.TrimRight(e.Report.Table, "\n"))
		b.WriteString("\n```\n")
	}
	return b.String()
}
