package shard

import (
	"fmt"
	"strings"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
)

// CollectSpans gathers every partial's trace spans into one run-wide
// trace, deterministically ordered. Partials produced without tracing
// contribute nothing.
func CollectSpans(partials []Partial) []obs.Span {
	var out []obs.Span
	for _, p := range partials {
		out = append(out, p.Spans...)
	}
	obs.SortSpans(out)
	return out
}

// Merge verifies a set of shard partials against a plan and its
// manifest, as BuildPlan returned them, and reassembles the run they
// cover. The coverage check is strict: every manifest unit must appear
// in exactly one partial, a unit in two partials or a unit the
// manifest does not know is an error, and every partial must carry
// the same manifest hash, scale and version. On success the returned RunResult is
// indistinguishable from a single-process registry run — the JSON/CSV
// artifacts and rendered report come out byte-identical.
func Merge(plan *experiments.Plan, m Manifest, partials []Partial) (experiments.RunResult, experiments.RunTiming, error) {
	var zero experiments.RunResult
	var zt experiments.RunTiming
	if len(partials) == 0 {
		return zero, zt, fmt.Errorf("shard: merge: no partials")
	}
	units := plan.Units
	unitIdx := map[string]int{}
	for i, u := range units {
		unitIdx[u.ID] = i
	}

	// Collect each unit's result, rejecting strays and duplicates.
	got := make([]*PartialCell, len(units))
	owner := make([]int, len(units)) // partial index that provided it
	timing := experiments.RunTiming{Source: "merged"}
	for pi := range partials {
		p := &partials[pi]
		if p.Version != PartialVersion {
			return zero, zt, fmt.Errorf("shard: merge: shard %d partial is version %d, want %d", p.Shard, p.Version, PartialVersion)
		}
		if p.Scale != m.Scale {
			return zero, zt, fmt.Errorf("shard: merge: shard %d ran scale %q, merging %q", p.Shard, p.Scale, m.Scale)
		}
		if p.ManifestHash != m.Hash {
			return zero, zt, fmt.Errorf("shard: merge: shard %d was planned against manifest %s, this registry/scale/filter builds %s — rerun the shard or the merge with matching flags and cell enumeration", p.Shard, p.ManifestHash, m.Hash)
		}
		for ci := range p.Cells {
			c := &p.Cells[ci]
			ui, ok := unitIdx[c.Unit]
			if !ok {
				return zero, zt, fmt.Errorf("shard: merge: shard %d carries unit %s (%s/%s) that is not in the manifest", p.Shard, c.Unit, c.Experiment, c.Cell)
			}
			if prev := got[ui]; prev != nil {
				return zero, zt, fmt.Errorf("shard: merge: unit %s (%s/%s) appears in both shard %d and shard %d", c.Unit, c.Experiment, c.Cell, partials[owner[ui]].Shard, p.Shard)
			}
			got[ui] = c
			owner[ui] = pi
			timing.SequentialSeconds += c.Seconds
		}
		timing.Shards = append(timing.Shards, experiments.ShardTiming{
			Shard:          p.Shard,
			Shards:         p.Shards,
			Workers:        p.Workers,
			Cells:          len(p.Cells),
			ElapsedSeconds: p.ElapsedSeconds,
		})
		if p.ElapsedSeconds > timing.ElapsedSeconds {
			timing.ElapsedSeconds = p.ElapsedSeconds
		}
	}
	var missing []string
	for i, u := range units {
		if got[i] == nil {
			mc := m.Cells[u.Cells[0]]
			missing = append(missing, fmt.Sprintf("%s (%s/%s)", u.ID, mc.Experiment, mc.Cell))
		}
	}
	if len(missing) > 0 {
		return zero, zt, fmt.Errorf("shard: merge: %d of %d manifest units missing from the partial set: %s", len(missing), len(units), strings.Join(missing, ", "))
	}

	// Decode every logical cell through its own experiment's hook;
	// each unit's wall seconds are attributed to the shard that ran it.
	runs := make([]experiments.UnitRun, len(units))
	for i, pc := range got {
		runs[i] = experiments.UnitRun{Worker: fmt.Sprintf("shard-%d", partials[owner[i]].Shard), Seconds: pc.Seconds}
	}
	out, err := plan.Assemble(runs, func(e experiments.Experiment, c experiments.Cell, u int) (any, error) {
		if e.DecodeResult == nil {
			return nil, fmt.Errorf("shard: merge: experiment %q has no DecodeResult and cannot be merged", e.Name)
		}
		v, err := e.DecodeResult(got[u].Result)
		if err != nil {
			return nil, fmt.Errorf("shard: merge: decoding %s/%s: %w", e.Name, c.Name, err)
		}
		return v, nil
	})
	if err != nil {
		return zero, zt, err
	}
	out.ManifestHash = m.Hash
	return out, timing, nil
}
