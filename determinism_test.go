package perfiso_test

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"perfiso/internal/experiments"
	"perfiso/internal/shard"
)

// TestGoldenArtifactRegression is the engine rewrite's end-to-end
// determinism gate: a fast subset of the registry, re-run from scratch,
// must reproduce the committed results/test artifacts byte-for-byte —
// sequentially, on a parallel cell pool, and through a two-way shard
// merge. Any change to event ordering, RNG streams, or thread-sweep
// order shows up here as a golden mismatch before CI ever diffs the
// full artifact set.
func TestGoldenArtifactRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	const filter = "^(fig9|fig10)$"
	want := goldenCellRows(t, filter)
	reg := experiments.DefaultRegistry()
	spec := experiments.TestSpec()

	for _, workers := range []int{1, 8} {
		res, err := reg.Run(experiments.RunOptions{
			Spec:    spec,
			Workers: workers,
			Filter:  regexp.MustCompile(filter),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		compareCellRows(t, "workers="+string(rune('0'+workers)), runCellRows(t, res), want)
	}

	// Two-way shard merge must land on the same bytes.
	partials := make([]shard.Partial, 2)
	for i := range partials {
		p, err := shard.RunShard(reg, shard.RunShardOptions{
			Spec:    spec,
			Filter:  filter,
			Shard:   i,
			Shards:  2,
			Workers: 2,
		})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		partials[i] = p
	}
	plan, m, err := shard.BuildPlan(reg, spec, filter)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := shard.Merge(plan, m, partials)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	compareCellRows(t, "2-way merge", runCellRows(t, merged), want)
}

// goldenCellRows extracts the committed cells.csv rows of experiments
// matching pattern, preserving file order.
func goldenCellRows(t *testing.T, pattern string) []string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	raw, err := os.ReadFile("results/test/cells.csv")
	if err != nil {
		t.Fatalf("reading committed goldens: %v", err)
	}
	var rows []string
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if i == 0 {
			continue // header
		}
		if name, _, ok := strings.Cut(line, ","); ok && re.MatchString(name) {
			rows = append(rows, line)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no committed rows match %q", pattern)
	}
	return rows
}

// runCellRows renders a run's cells.csv and returns its data rows.
func runCellRows(t *testing.T, res experiments.RunResult) []string {
	t.Helper()
	dir := t.TempDir()
	if err := experiments.WriteArtifacts(dir, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dir + "/cells.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	return lines[1:] // drop header
}

func compareCellRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d cell rows, committed goldens have %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if !bytes.Equal([]byte(got[i]), []byte(want[i])) {
			t.Errorf("%s: row %d diverges from committed golden:\n got  %s\n want %s", label, i, got[i], want[i])
			return
		}
	}
}
