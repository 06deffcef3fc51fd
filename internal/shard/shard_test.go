package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"perfiso/internal/experiments"
)

// TestManifestDeterministic: same registry + spec + filter ⇒ same
// manifest and hash; a different filter or scale ⇒ a different hash.
func TestManifestDeterministic(t *testing.T) {
	spec := experiments.TestSpec()
	a, err := Build(experiments.DefaultRegistry(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(experiments.DefaultRegistry(), spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two Builds of the same selection differ")
	}
	if a.Hash != b.Hash || !strings.HasPrefix(a.Hash, "sha256:") {
		t.Errorf("hashes differ or malformed: %q vs %q", a.Hash, b.Hash)
	}
	if len(a.Cells) == 0 {
		t.Fatal("empty manifest")
	}

	filtered, err := Build(experiments.DefaultRegistry(), spec, "^fig4$")
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Hash == a.Hash {
		t.Error("filtered manifest hashes like the full one")
	}
	paper, err := Build(experiments.DefaultRegistry(), experiments.PaperSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if paper.Hash == a.Hash {
		t.Error("paper-scale manifest hashes like the test-scale one")
	}
}

// TestManifestZeroMatch: a filter matching nothing errors with the
// valid names instead of yielding an empty manifest.
func TestManifestZeroMatch(t *testing.T) {
	_, err := Build(experiments.DefaultRegistry(), experiments.TestSpec(), "^nope$")
	if err == nil {
		t.Fatal("zero-match filter built a manifest")
	}
	for _, want := range []string{"fig4", "ablation-buffer", "^nope$"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

// TestPlanPartition is the planner property test: for N ∈ {1,2,3,7}
// every unit of the full test-scale manifest lands on exactly one
// shard, keyed cells never split, the plan is reproducible, and the
// load balance is no worse than one max-cost unit above perfect.
func TestPlanPartition(t *testing.T) {
	m, err := Build(experiments.DefaultRegistry(), experiments.TestSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	units, err := m.Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) >= len(m.Cells) {
		t.Fatalf("expected shared cells in the full manifest: %d units of %d cells", len(units), len(m.Cells))
	}
	var total, maxCost float64
	for _, u := range units {
		total += u.Cost
		if u.Cost > maxCost {
			maxCost = u.Cost
		}
	}

	for _, n := range []int{1, 2, 3, 7} {
		p, err := PlanShards(m, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		again, err := PlanShards(m, n)
		if err != nil || !reflect.DeepEqual(p, again) {
			t.Fatalf("n=%d: plan not reproducible (%v)", n, err)
		}
		if len(p.Shards) != n || p.ManifestHash != m.Hash {
			t.Fatalf("n=%d: shape %d shards, hash %s", n, len(p.Shards), p.ManifestHash)
		}
		seen := map[string]int{}
		var worst float64
		for _, s := range p.Shards {
			for _, id := range s.Units {
				seen[id]++
			}
			if s.Cost > worst {
				worst = s.Cost
			}
		}
		for _, u := range units {
			if seen[u.ID] != 1 {
				t.Errorf("n=%d: unit %s assigned %d times", n, u.ID, seen[u.ID])
			}
		}
		if len(seen) != len(units) {
			t.Errorf("n=%d: %d distinct units planned, manifest has %d", n, len(seen), len(units))
		}
		// LPT bound: the heaviest shard exceeds the perfect split by at
		// most one largest unit.
		if perfect := total / float64(n); worst > perfect+maxCost {
			t.Errorf("n=%d: worst shard %.0f exceeds perfect %.0f by more than max unit %.0f", n, worst, perfect, maxCost)
		}
	}

	if _, err := PlanShards(m, 0); err == nil {
		t.Error("PlanShards(m, 0) accepted")
	}
}

// mergeFilter keeps the execution tests fast while still crossing the
// interesting boundaries: fig5 and the headline share a standalone
// baseline by key (so dedup must survive sharding), and fig10 brings a
// second result type.
const mergeFilter = "^(fig5|headline|fig10)$"

// runShards executes all n shards of the filtered test-scale run.
func runShards(t *testing.T, spec experiments.ScaleSpec, n int, workers func(i int) int) []Partial {
	t.Helper()
	out := make([]Partial, n)
	for i := 0; i < n; i++ {
		p, err := RunShard(experiments.DefaultRegistry(), RunShardOptions{
			Spec:    spec,
			Filter:  mergeFilter,
			Shard:   i,
			Shards:  n,
			Workers: workers(i),
		})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		out[i] = p
	}
	return out
}

// artifactBytes renders a run's three deterministic outputs.
func artifactBytes(t *testing.T, res experiments.RunResult) (summary, csv, md []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := experiments.WriteArtifacts(dir, res); err != nil {
		t.Fatal(err)
	}
	summary, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	csv, err = os.ReadFile(filepath.Join(dir, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return summary, csv, []byte(experiments.RenderMarkdownWith(res, experiments.ReportOptions{}))
}

// TestMergeByteIdentical is the subsystem's acceptance property: a
// 3-way sharded run merged back together produces summary.json,
// cells.csv and the rendered report byte-identical to a single-process
// run, regardless of per-shard worker counts — and the merge rejects
// partial sets with a missing or duplicated unit.
func TestMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	spec := experiments.TestSpec()
	reg := experiments.DefaultRegistry()

	plan, m, err := BuildPlan(reg, spec, mergeFilter)
	if err != nil {
		t.Fatal(err)
	}
	single, err := reg.Run(experiments.RunOptions{
		Spec:    spec,
		Workers: 4,
		Filter:  regexp.MustCompile(mergeFilter),
	})
	if err != nil {
		t.Fatal(err)
	}
	single.ManifestHash = m.Hash
	wantSummary, wantCSV, wantMD := artifactBytes(t, single)

	partials := runShards(t, spec, 3, func(i int) int { return i%2 + 1 })
	for _, p := range partials {
		if p.ManifestHash != m.Hash {
			t.Fatalf("shard %d manifest %s, want %s", p.Shard, p.ManifestHash, m.Hash)
		}
	}
	merged, timing, err := Merge(plan, m, partials)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Source != "merged" || len(timing.Shards) != 3 {
		t.Errorf("timing: %+v", timing)
	}
	if merged.CellCount != single.CellCount || merged.SharedCells != single.SharedCells {
		t.Errorf("counts: merged %d/%d, single %d/%d",
			merged.CellCount, merged.SharedCells, single.CellCount, single.SharedCells)
	}
	gotSummary, gotCSV, gotMD := artifactBytes(t, merged)
	if !bytes.Equal(gotSummary, wantSummary) {
		t.Error("summary.json differs between merged and single-process run")
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("cells.csv differs between merged and single-process run")
	}
	if !bytes.Equal(gotMD, wantMD) {
		t.Error("rendered report differs between merged and single-process run")
	}

	// Round-trip through the on-disk encoding too: merging re-read
	// partials must change nothing.
	dir := t.TempDir()
	for i, p := range partials {
		if err := WritePartial(filepath.Join(dir, "s"+string(rune('0'+i))+".json"), p); err != nil {
			t.Fatal(err)
		}
	}
	reread, err := ReadPartialsDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt, _, err := Merge(plan, m, reread)
	if err != nil {
		t.Fatal(err)
	}
	rtSummary, _, rtMD := artifactBytes(t, rt)
	if !bytes.Equal(rtSummary, wantSummary) || !bytes.Equal(rtMD, wantMD) {
		t.Error("artifacts differ after partials round-trip through disk")
	}

	// Coverage rejection: a missing shard names the absent units...
	_, _, err = Merge(plan, m, partials[:2])
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("merge with a missing shard: %v", err)
	}
	// ...a duplicated shard names the double-assigned unit...
	dup := append(append([]Partial(nil), partials...), partials[1])
	_, _, err = Merge(plan, m, dup)
	if err == nil || !strings.Contains(err.Error(), "appears in both") {
		t.Errorf("merge with a duplicated shard: %v", err)
	}
	// ...and a shard from a different manifest is refused outright.
	bad := partials[0]
	bad.ManifestHash = "sha256:0000"
	_, _, err = Merge(plan, m, []Partial{bad, partials[1], partials[2]})
	if err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Errorf("merge with a foreign manifest: %v", err)
	}
	// A stray cell the manifest does not know is rejected too.
	stray := partials[0]
	stray.Cells = append(append([]PartialCell(nil), stray.Cells...), PartialCell{
		Unit: "cell:fig4/bully=high/qps=2000", Experiment: "fig4", Cell: "bully=high/qps=2000",
		Result: []byte("{}"),
	})
	_, _, err = Merge(plan, m, []Partial{stray, partials[1], partials[2]})
	if err == nil || !strings.Contains(err.Error(), "not in the manifest") {
		t.Errorf("merge with a stray cell: %v", err)
	}
}

// TestEmptyShardPartial: planning more shards than units leaves some
// assignments empty; running such a shard must still produce a valid
// (empty) partial that Merge accepts alongside the populated ones, and
// the merged artifacts must match a single-process run byte-for-byte.
func TestEmptyShardPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	spec := experiments.TestSpec()
	reg := experiments.DefaultRegistry()
	const filter = "^fig10$" // one unit, so 2 of 3 shards are empty

	plan, m, err := BuildPlan(reg, spec, filter)
	if err != nil {
		t.Fatal(err)
	}
	units, _ := m.Units()
	if len(units) != 1 {
		t.Fatalf("fig10 has %d units, test expects 1", len(units))
	}

	partials := make([]Partial, 3)
	empty := 0
	for i := range partials {
		p, err := RunShard(reg, RunShardOptions{Spec: spec, Filter: filter, Shard: i, Shards: 3})
		if err != nil {
			t.Fatalf("shard %d/3: %v", i, err)
		}
		if p.ManifestHash != m.Hash {
			t.Errorf("shard %d/3 manifest %s, want %s", i, p.ManifestHash, m.Hash)
		}
		if len(p.Cells) == 0 {
			empty++
		}
		partials[i] = p
	}
	if empty != 2 {
		t.Fatalf("%d empty partials, want 2", empty)
	}

	// Empty partials survive the disk round-trip and the merge.
	dir := t.TempDir()
	for i, p := range partials {
		if err := WritePartial(filepath.Join(dir, "s"+string(rune('0'+i))+".json"), p); err != nil {
			t.Fatal(err)
		}
	}
	reread, err := ReadPartialsDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := Merge(plan, m, reread)
	if err != nil {
		t.Fatalf("merge with empty partials: %v", err)
	}

	single, err := reg.Run(experiments.RunOptions{Spec: spec, Filter: regexp.MustCompile(filter)})
	if err != nil {
		t.Fatal(err)
	}
	single.ManifestHash = m.Hash
	wantSummary, wantCSV, wantMD := artifactBytes(t, single)
	gotSummary, gotCSV, gotMD := artifactBytes(t, merged)
	if !bytes.Equal(gotSummary, wantSummary) || !bytes.Equal(gotCSV, wantCSV) || !bytes.Equal(gotMD, wantMD) {
		t.Error("artifacts differ between empty-shard merge and single-process run")
	}
}

// TestRunShardBounds: out-of-range shard indices fail fast.
func TestRunShardBounds(t *testing.T) {
	for _, bad := range []struct{ i, n int }{{-1, 3}, {3, 3}, {0, 0}} {
		_, err := RunShard(experiments.DefaultRegistry(), RunShardOptions{
			Spec: experiments.TestSpec(), Shard: bad.i, Shards: bad.n,
		})
		if err == nil {
			t.Errorf("RunShard(%d/%d) accepted", bad.i, bad.n)
		}
	}
}
