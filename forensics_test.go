package perfiso_test

// End-to-end invariants of the tail-forensics subsystem: tracing is
// observation only (artifacts are byte-identical with a live tracer
// attached), the forensics.csv artifact rides shard and dispatch
// merges byte-identically, the per-cell trace accounts for every
// query exactly once, and the blame table actually explains the tail
// (≥90% of the P99 query's latency attributed to named causes on the
// fig4 headline cell).

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"perfiso/internal/dispatch"
	"perfiso/internal/experiments"
	"perfiso/internal/shard"
	"perfiso/internal/simtrace"
)

const forensicsFilter = "^fig4$"

// runFig4 executes the forensics anchor experiment on the in-process
// pool, optionally delivering per-cell tracers to onTrace.
func runFig4(t *testing.T, onTrace func(experiment, cell string, tr *simtrace.Tracer)) experiments.RunResult {
	t.Helper()
	res, err := experiments.DefaultRegistry().Run(experiments.RunOptions{
		Spec:       experiments.TestSpec(),
		Workers:    2,
		Filter:     regexp.MustCompile(forensicsFilter),
		OnSimTrace: onTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// artifactFiles writes a run's artifacts and returns them keyed by
// file name.
func artifactFiles(t *testing.T, res experiments.RunResult) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := experiments.WriteArtifacts(dir, res); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// TestSimtraceObservationOnly is the tracing-is-read-only gate: the
// same cells run with live tracers attached must produce artifacts
// byte-identical to an untraced run, and every captured trace must
// export to Chrome trace-event JSON that passes validation.
func TestSimtraceObservationOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	want := artifactFiles(t, runFig4(t, nil))
	if _, ok := want["forensics.csv"]; !ok {
		t.Fatal("untraced run wrote no forensics.csv")
	}

	traces := 0
	got := artifactFiles(t, runFig4(t, func(experiment, cell string, tr *simtrace.Tracer) {
		traces++
		if tr.Len() == 0 {
			t.Errorf("%s/%s: empty trace", experiment, cell)
			return
		}
		var buf bytes.Buffer
		if err := simtrace.WriteChrome(&buf, tr); err != nil {
			t.Errorf("%s/%s: export: %v", experiment, cell, err)
			return
		}
		if err := simtrace.ValidateChrome(buf.Bytes()); err != nil {
			t.Errorf("%s/%s: invalid Chrome trace: %v", experiment, cell, err)
		}
	}))
	if traces == 0 {
		t.Fatal("traced run delivered no tracers")
	}
	if len(got) != len(want) {
		t.Fatalf("traced run wrote %d artifacts, untraced %d", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s differs between traced and untraced runs", name)
		}
	}
}

// TestForensicsMergeByteIdentical proves forensics.csv rides partial
// merges like cells.csv: a two-way shard merge and a three-worker
// dispatched run must both render the byte-identical artifact of a
// single-process run.
func TestForensicsMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	reg := experiments.DefaultRegistry()
	spec := experiments.TestSpec()
	want := experiments.RenderForensicsCSV(runFig4(t, nil))
	if !bytes.Contains([]byte(want), []byte(",p99,")) {
		t.Fatalf("single-process forensics.csv carries no p99 rows:\n%s", want)
	}

	partials := make([]shard.Partial, 2)
	for i := range partials {
		p, err := shard.RunShard(reg, shard.RunShardOptions{
			Spec:    spec,
			Filter:  forensicsFilter,
			Shard:   i,
			Shards:  2,
			Workers: 2,
		})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		partials[i] = p
	}
	plan, m, err := shard.BuildPlan(reg, spec, forensicsFilter)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := shard.Merge(plan, m, partials)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got := experiments.RenderForensicsCSV(merged); got != want {
		t.Errorf("2-way shard merge forensics.csv differs from single-process run")
	}

	p, _, err := dispatch.RunLocal(plan, m, 3, dispatch.Options{}, nil, nil)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	dispatched, _, err := shard.Merge(plan, m, []shard.Partial{p})
	if err != nil {
		t.Fatalf("dispatch merge: %v", err)
	}
	if got := experiments.RenderForensicsCSV(dispatched); got != want {
		t.Errorf("3-worker dispatched forensics.csv differs from single-process run")
	}
}

// TestTraceQueryCompleteness checks the span accounting of one traced
// cell: every query opens exactly one async span, completions close
// exactly one, closes always match an open, and the measured blame
// table never counts more queries than the trace completed.
func TestTraceQueryCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	tr := simtrace.New()
	res := experiments.RunSingleTraced(2000, experiments.BullyHigh, nil, experiments.TestScale(), tr)

	begins := map[int]int{}
	ends := map[int]int{}
	for _, e := range tr.Events() {
		if e.Cat != "query" || e.Name != "query" {
			continue
		}
		switch e.Kind {
		case simtrace.KindBegin:
			begins[e.ID]++
		case simtrace.KindEnd:
			ends[e.ID]++
		}
	}
	if len(begins) == 0 {
		t.Fatal("trace captured no query spans")
	}
	for id, n := range begins {
		if n != 1 {
			t.Errorf("query %d opened %d spans, want 1", id, n)
		}
	}
	for id, n := range ends {
		if n != 1 {
			t.Errorf("query %d closed %d spans, want 1", id, n)
		}
		if begins[id] == 0 {
			t.Errorf("query %d closed a span it never opened", id)
		}
	}
	if res.Forensics == nil {
		t.Fatal("traced run produced no blame table")
	}
	if res.Forensics.Queries > len(ends) {
		t.Errorf("blame table counts %d measured queries, trace completed only %d",
			res.Forensics.Queries, len(ends))
	}
}

// TestForensicsP99Attribution is the acceptance bar of the blame
// table: on the fig4 headline cell (high bully, 2,000 QPS, test
// scale) the named causes must explain at least 90% of the P99
// query's latency — the unattributed residual stays under 10%.
func TestForensicsP99Attribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	res := experiments.RunSingle(2000, experiments.BullyHigh, nil, experiments.TestScale())
	if res.Forensics == nil {
		t.Fatal("run produced no blame table")
	}
	for _, row := range res.Forensics.Rows {
		if row.Quantile != "p99" {
			continue
		}
		rec := row.Record
		if rec.Latency <= 0 {
			t.Fatalf("p99 query %d has non-positive latency %d", rec.ID, rec.Latency)
		}
		frac := float64(rec.Attributed()) / float64(rec.Latency)
		t.Logf("p99 query %d: latency %v, attributed %.1f%%", rec.ID, rec.Latency, 100*frac)
		if frac < 0.90 {
			t.Errorf("p99 attribution %.1f%% < 90%% (residual other=%v of latency=%v)",
				100*frac, rec.Other, rec.Latency)
		}
		return
	}
	t.Fatal("blame table has no p99 row")
}
