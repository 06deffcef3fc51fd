package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"perfiso/internal/experiments"
	"perfiso/internal/simtrace"
)

func TestListExperiments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"fig4", "fig9", "fig10", "headline", "harvest-frontier"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list missing %s:\n%s", want, out.String())
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scale", "huge"}, &out, &errb); code != 2 {
		t.Fatalf("bad scale: exit %d", code)
	}
	if code := run([]string{"-run", "("}, &out, &errb); code != 2 {
		t.Fatalf("bad regexp: exit %d", code)
	}
	if code := run([]string{"unknowncmd"}, &out, &errb); code != 2 {
		t.Fatalf("unknown subcommand: exit %d", code)
	}
	if code := run([]string{"merge", "-report", ""}, &out, &errb); code != 2 {
		t.Fatalf("merge without shards: exit %d", code)
	}
	for _, bad := range []string{"5/3", "1/3x", "0/3/9", "x/3", "1"} {
		if code := run([]string{"run", "-shard", bad}, &out, &errb); code != 2 {
			t.Fatalf("-shard %q: exit %d, want 2", bad, code)
		}
	}
	if code := run([]string{"run", "-shard", "0/2", "-results", ""}, &out, &errb); code != 2 {
		t.Fatalf("-shard without partial or results dir: exit %d", code)
	}
	// A shard's partial carries no counters, so -stats would count and
	// throw the counts away.
	errb.Reset()
	if code := run([]string{"run", "-shard", "0/1", "-stats", "-partial", filepath.Join(t.TempDir(), "p.json")}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "-stats") {
		t.Fatalf("-shard with -stats: exit %d, stderr %q; want 2 naming -stats", code, errb.String())
	}
	// serve, work and -dispatch are not part of the CLI: an unknown
	// subcommand or flag is a usage error.
	for _, args := range [][]string{
		{"serve"},
		{"work", "-coordinator", "http://127.0.0.1:7413"},
		{"run", "-dispatch", "2"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	// A negative or non-finite -tolerance is refused before any cell
	// runs.
	for _, sub := range [][]string{
		{"run", "-run", "^fig10$", "-results", "", "-report", ""},
		{"merge", "-shards", t.TempDir(), "-results", "", "-report", ""},
	} {
		for _, tol := range []string{"-0.1", "NaN", "+Inf"} {
			errb.Reset()
			args := append(append([]string(nil), sub...), "-tolerance", tol)
			if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "bad -tolerance") {
				t.Errorf("%v: exit %d, stderr %q; want 2 naming -tolerance", args, code, errb.String())
			}
		}
	}
}

// TestZeroMatchFilterListsNames: run, manifest and merge all refuse a
// filter matching nothing and name the valid experiments.
func TestZeroMatchFilterListsNames(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "^nothing$", "-report", ""},
		{"run", "-run", "^nothing$", "-shard", "0/2"},
		{"manifest", "-run", "^nothing$"},
		{"merge", "-run", "^nothing$", "-shards", t.TempDir()},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0, want non-zero", args)
		}
		// The merge case fails earlier on the empty shard dir, which is
		// just as loud; the others must name the experiments.
		if args[0] != "merge" && !strings.Contains(errb.String(), "valid names: fig4") {
			t.Errorf("%v: error does not list names: %s", args, errb.String())
		}
	}
}

// TestManifestAndPlanOutput: the manifest subcommand emits the cell
// enumeration and, with -plan, a cost-balanced partition, without
// running anything.
func TestManifestAndPlanOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"manifest", "-scale", "test"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var m struct {
		Version int    `json:"version"`
		Scale   string `json:"scale"`
		Hash    string `json:"hash"`
		Cells   []struct {
			Experiment string  `json:"experiment"`
			Cell       string  `json:"cell"`
			Cost       float64 `json:"cost"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("manifest output: %v", err)
	}
	if m.Version != 1 || m.Scale != "test" || !strings.HasPrefix(m.Hash, "sha256:") || len(m.Cells) == 0 {
		t.Fatalf("manifest header: version=%d scale=%q hash=%q cells=%d", m.Version, m.Scale, m.Hash, len(m.Cells))
	}
	for _, c := range m.Cells {
		if c.Cost <= 0 {
			t.Errorf("cell %s/%s has cost %v", c.Experiment, c.Cell, c.Cost)
		}
	}

	out.Reset()
	if code := run([]string{"manifest", "-scale", "test", "-plan", "3"}, &out, &errb); code != 0 {
		t.Fatalf("plan: exit %d, stderr: %s", code, errb.String())
	}
	var p struct {
		ManifestHash string `json:"manifest_hash"`
		Shards       []struct {
			Units []string `json:"units"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		t.Fatalf("plan output: %v", err)
	}
	if p.ManifestHash != m.Hash || len(p.Shards) != 3 {
		t.Fatalf("plan: hash=%q shards=%d", p.ManifestHash, len(p.Shards))
	}
}

// TestShardMergeRoundTrip drives the CLI end to end on a cheap
// filtered selection: two shard runs, a merge, and a byte comparison
// against the single-process artifacts.
func TestShardMergeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	tmp := t.TempDir()
	shards := filepath.Join(tmp, "shards")
	const filter = "^(fig10|headline)$"
	for i := 0; i < 2; i++ {
		var out, errb bytes.Buffer
		code := run([]string{"run", "-scale", "test", "-run", filter, "-quiet",
			"-shard", fmt.Sprintf("%d/2", i),
			"-partial", filepath.Join(shards, fmt.Sprintf("s%d.json", i))}, &out, &errb)
		if code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", i, code, errb.String())
		}
	}
	var out, errb bytes.Buffer
	code := run([]string{"merge", "-scale", "test", "-run", filter, "-shards", shards,
		"-results", filepath.Join(tmp, "merged"), "-report", filepath.Join(tmp, "MERGED.md")}, &out, &errb)
	if code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	code = run([]string{"-scale", "test", "-run", filter, "-quiet", "-workers", "3",
		"-results", filepath.Join(tmp, "single"), "-report", filepath.Join(tmp, "SINGLE.md")}, &out, &errb)
	if code != 0 {
		t.Fatalf("single: exit %d, stderr: %s", code, errb.String())
	}
	for _, f := range []string{"test/summary.json", "test/cells.csv"} {
		a, err := os.ReadFile(filepath.Join(tmp, "merged", f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(tmp, "single", f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between merged and single-process run", f)
		}
	}
	a, _ := os.ReadFile(filepath.Join(tmp, "MERGED.md"))
	b, _ := os.ReadFile(filepath.Join(tmp, "SINGLE.md"))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Error("reports differ between merged and single-process run")
	}
	if !strings.Contains(string(a), "## Provenance") || !strings.Contains(string(a), "sha256:") {
		t.Error("report missing provenance line")
	}
}

// TestSmokeArtifacts runs the smallest experiment end to end and
// checks the JSON/CSV artifacts and the markdown report.
func TestSmokeArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	tmp := t.TempDir()
	results := filepath.Join(tmp, "results")
	report := filepath.Join(tmp, "RESULTS.md")
	var out, errb bytes.Buffer
	code := run([]string{
		"-scale", "test", "-run", "^headline$", "-workers", "2", "-quiet",
		"-results", results, "-report", report,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}

	blob, err := os.ReadFile(filepath.Join(results, "test", "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Scale        string `json:"scale"`
		ManifestHash string `json:"manifest_hash"`
		CellCount    int    `json:"cell_count"`
		Experiments  []struct {
			Name  string `json:"name"`
			Cells []struct {
				Cell    string             `json:"cell"`
				Metrics map[string]float64 `json:"metrics"`
			} `json:"cells"`
			Table string `json:"table"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatalf("summary.json: %v", err)
	}
	if art.Scale != "test" || art.CellCount != 2 || !strings.HasPrefix(art.ManifestHash, "sha256:") {
		t.Fatalf("artifact header: %+v", art)
	}
	if len(art.Experiments) != 1 || art.Experiments[0].Name != "headline" {
		t.Fatalf("experiments: %+v", art.Experiments)
	}
	m := art.Experiments[0].Cells[0].Metrics
	if m["colocated_used_pct"] <= m["standalone_used_pct"] {
		t.Errorf("colocation did not raise utilization: %+v", m)
	}

	csvBlob, err := os.ReadFile(filepath.Join(results, "test", "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvBlob)), "\n")
	if lines[0] != "experiment,cell,metric,value" {
		t.Fatalf("csv header: %q", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("csv too short: %d lines", len(lines))
	}
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != 4 {
			t.Errorf("csv row with %d fields: %q", got, line)
		}
	}

	md, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "Headline") || !strings.Contains(string(md), "## Full tables") {
		t.Errorf("report malformed:\n%s", md)
	}

	// timing.json names the host that ran the cells.
	blob, err = os.ReadFile(filepath.Join(results, "test", "timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	var timing experiments.RunTiming
	if err := json.Unmarshal(blob, &timing); err != nil {
		t.Fatalf("timing.json: %v", err)
	}
	if timing.Host == nil {
		t.Fatalf("timing.json has no host: %s", blob)
	}
	if *timing.Host != experiments.HostOf() {
		t.Errorf("timing.json host = %+v, want %+v", *timing.Host, experiments.HostOf())
	}
	if runtime.GOARCH == "amd64" && !strings.HasPrefix(timing.Host.GOAMD64, "v") {
		t.Errorf("timing.json host has no GOAMD64 level: %s", blob)
	}
}

// TestFilterProtectsDefaultReport checks a filtered run does not
// clobber the committed RESULTS.md unless -report is explicit.
func TestFilterProtectsDefaultReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	tmp := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var out, errb bytes.Buffer
	code := run([]string{"-scale", "test", "-run", "^fig10$", "-quiet", "-results", "results"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if _, err := os.Stat("RESULTS.md"); !os.IsNotExist(err) {
		t.Error("filtered run wrote RESULTS.md without explicit -report")
	}
	if !strings.Contains(errb.String(), "not overwriting") {
		t.Errorf("missing skip notice on stderr: %s", errb.String())
	}
}

// TestSimTraceWritesAreAtomic checks that `run -simtrace` renames each
// trace into place. A normal run leaves only .json traces that
// tracecheck accepts; a run whose rename fails, because a directory
// sits at a trace's name, reports the error and leaves no temp file.
func TestSimTraceWritesAreAtomic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	tmp := t.TempDir()
	args := []string{"run", "-scale", "test", "-run", "^headline$", "-simtrace", "-quiet", "-report", ""}
	list := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}

	var out, errb bytes.Buffer
	dir := filepath.Join(tmp, "ok", "test", "simtrace")
	if code := run(append(args, "-results", filepath.Join(tmp, "ok")), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	traces := list(dir)
	if len(traces) != 2 {
		t.Fatalf("simtrace dir holds %v, want the 2 headline traces", traces)
	}
	for _, name := range traces {
		if !strings.HasSuffix(name, ".json") {
			t.Errorf("simtrace dir holds %s, not a trace", name)
		}
	}
	if code := run([]string{"tracecheck", dir}, &out, &errb); code != 0 {
		t.Fatalf("tracecheck exit %d, stderr: %s", code, errb.String())
	}

	dir = filepath.Join(tmp, "blocked", "test", "simtrace")
	for _, name := range traces {
		if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	errb.Reset()
	if code := run(append(args, "-results", filepath.Join(tmp, "blocked")), &out, &errb); code != 1 {
		t.Fatalf("exit %d with a directory at each trace's name, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "writing sim traces") {
		t.Errorf("stderr does not report the failed write: %s", errb.String())
	}
	if got := list(dir); strings.Join(got, " ") != strings.Join(traces, " ") {
		t.Errorf("simtrace dir holds %v after the failed rename, want only the blocking directories %v", got, traces)
	}
}

// TestTracecheckNamesInvalidFiles feeds tracecheck a directory holding
// a WriteChrome export, its json.Indent copy (which the validator
// decodes with encoding/json) and a trace with an unknown phase. Only
// the defective file may fail, and stderr must name it alone.
func TestTracecheckNamesInvalidFiles(t *testing.T) {
	tr := simtrace.New()
	tr.NameTrack(0, "core 0")
	tr.Slice(0, 900, 0, "indexserve", "cpu", simtrace.Int("tid", 1))
	tr.Begin(100, 7, "query", "query", simtrace.Int("workers", 4))
	tr.Instant(500, simtrace.TrackControl, "buffer-grow", "controller", simtrace.Int("allocated", 8))
	tr.End(2000, 7, "query", "query", simtrace.Bool("dropped", false))
	var export, indented bytes.Buffer
	if err := simtrace.WriteChrome(&export, tr); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&indented, export.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"export.json":   export.Bytes(),
		"indented.json": indented.Bytes(),
		"defect.json":   []byte(`{"traceEvents":[{"name":"a","ph":"Z","ts":1}]}`),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"tracecheck", dir}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if want := "validated 3 trace files (1 invalid)\n"; out.String() != want {
		t.Errorf("stdout %q, want %q", out.String(), want)
	}
	lines := strings.Split(strings.TrimSpace(errb.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "defect.json") || !strings.Contains(lines[0], "unknown phase") {
		t.Errorf("stderr must name only defect.json and its fault:\n%s", errb.String())
	}
}

// TestSidecarWritesAreAtomic checks that every artifact writer renames
// its file into place like the sim traces: with a directory at the
// name of timing.json, trace.jsonl, summary.json, one figure, the
// report, a shard partial or a manifest, the command exits non-zero,
// names the failed write, fails at the rename and leaves no temp file
// behind.
func TestSidecarWritesAreAtomic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	full := func(root string) []string {
		return []string{"run", "-scale", "test", "-run", "^fig10$", "-trace", "-quiet",
			"-results", filepath.Join(root, "results"), "-report", filepath.Join(root, "REPORT.md")}
	}
	for _, tc := range []struct {
		block string // where a directory blocks the rename, under the temp root
		args  func(root string) []string
		msg   string
	}{
		{"results/test/timing.json", full, "writing timing"},
		{"results/test/trace.jsonl", full, "writing trace"},
		{"results/test/summary.json", full, "writing artifacts"},
		{"results/test/figures/fig10-p99.svg", full, "writing figures"},
		{"REPORT.md", full, "writing report"},
		{"p.json", func(root string) []string {
			return []string{"run", "-scale", "test", "-run", "^fig10$", "-quiet", "-shard", "0/1",
				"-partial", filepath.Join(root, "p.json")}
		}, "writing partial"},
		{"m.json", func(root string) []string {
			return []string{"manifest", "-run", "^fig10$", "-o", filepath.Join(root, "m.json")}
		}, "writing manifest"},
	} {
		root := t.TempDir()
		blocked := filepath.Join(root, tc.block)
		if err := os.MkdirAll(blocked, 0o755); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		code := run(tc.args(root), &out, &errb)
		if code == 0 || !strings.Contains(errb.String(), tc.msg) {
			t.Errorf("directory at %s: exit %d, stderr %q; want non-zero naming %q", tc.block, code, errb.String(), tc.msg)
		}
		// An in-place write fails opening the file; only a write through
		// a temp file gets as far as the rename.
		if !strings.Contains(errb.String(), "rename") {
			t.Errorf("directory at %s: stderr %q does not come from the rename", tc.block, errb.String())
		}
		entries, err := os.ReadDir(filepath.Dir(blocked))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Errorf("directory at %s: the failed run left %s", tc.block, e.Name())
			}
		}
	}
}
