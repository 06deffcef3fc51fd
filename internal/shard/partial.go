package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
)

// PartialVersion versions the partial artifact encoding.
const PartialVersion = 1

// PartialCell is one executed unit's serialized result.
type PartialCell struct {
	// Unit is the manifest unit ID this result covers.
	Unit string `json:"unit"`
	// Experiment and Cell name the cell that was actually executed
	// (the unit's first occurrence).
	Experiment string `json:"experiment"`
	Cell       string `json:"cell"`
	// Result is the cell result's JSON encoding; the owning
	// experiment's DecodeResult rebuilds the typed value exactly.
	Result json.RawMessage `json:"result"`
	// Seconds is the cell's wall clock on the shard worker.
	Seconds float64 `json:"seconds"`
}

// Partial is one shard's output: everything Merge needs to verify
// coverage and reassemble the run.
type Partial struct {
	Version        int           `json:"version"`
	ManifestHash   string        `json:"manifest_hash"`
	Scale          string        `json:"scale"`
	Filter         string        `json:"filter,omitempty"`
	Shard          int           `json:"shard"`
	Shards         int           `json:"shards"`
	Workers        int           `json:"workers"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	Cells          []PartialCell `json:"cells"`
	// Spans, when the shard ran with tracing, carries one trace span
	// per executed unit so a merge can reassemble the run-wide trace.
	Spans []obs.Span `json:"spans,omitempty"`
}

// RunShardOptions parameterizes one shard execution.
type RunShardOptions struct {
	// Spec sizes every experiment; Filter restricts the manifest
	// (empty selects everything).
	Spec   experiments.ScaleSpec
	Filter string
	// Shard is the zero-based index in [0, Shards).
	Shard, Shards int
	// Workers sizes the cell pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnCell, when set, is called after each cell completes. Calls are
	// serialized.
	OnCell func(experiment, cell string, elapsed time.Duration)
	// Trace embeds one span per executed unit into the partial.
	Trace bool
}

// RunShard builds the manifest, plans it, and executes this shard's
// units on a worker pool. The returned partial embeds the manifest
// hash so Merge can verify every shard planned the same run. A shard
// whose assignment is empty (more shards than units) yields a valid
// empty partial that Merge accepts.
func RunShard(reg *experiments.Registry, opts RunShardOptions) (Partial, error) {
	if opts.Shard < 0 || opts.Shard >= opts.Shards {
		return Partial{}, fmt.Errorf("shard: index %d out of range for %d shards (zero-based)", opts.Shard, opts.Shards)
	}
	p, m, err := BuildPlan(reg, opts.Spec, opts.Filter)
	if err != nil {
		return Partial{}, err
	}
	plan, err := PlanShards(m, opts.Shards)
	if err != nil {
		return Partial{}, err
	}
	mine := plan.Shards[opts.Shard].Units
	run := experiments.RunOptions{Workers: opts.Workers, OnCell: opts.OnCell}
	if opts.Trace {
		run.Tracer = obs.NewTraceBuffer()
	}
	start := time.Now() //perfiso:allow walltime shard wall time feeds timing.json only
	cells, err := runUnits(p, mine, run, fmt.Sprintf("shard-%d/%d", opts.Shard, opts.Shards))
	if err != nil {
		return Partial{}, err
	}
	var spans []obs.Span
	if run.Tracer != nil {
		spans = run.Tracer.Spans()
	}
	return Partial{
		Version:        PartialVersion,
		ManifestHash:   m.Hash,
		Scale:          opts.Spec.Name,
		Filter:         opts.Filter,
		Shard:          opts.Shard,
		Shards:         opts.Shards,
		Workers:        experiments.PoolSize(opts.Workers, len(mine)),
		ElapsedSeconds: time.Since(start).Seconds(), //perfiso:allow walltime shard wall time feeds timing.json only
		Cells:          cells,
		Spans:          spans,
	}, nil
}

// runUnits executes the units named by ids on the plan's pool
// (Plan.Execute: expensive first, opts.OnCell and opts.Tracer as
// there, runs labeled worker) and serializes their results in ids
// order. A cell's bytes depend only on its unit (its seed and
// parameters), never on which process or worker ran it.
func runUnits(p *experiments.Plan, ids []string, opts experiments.RunOptions, worker string) ([]PartialCell, error) {
	byID := make(map[string]int, len(p.Units))
	for i, u := range p.Units {
		byID[u.ID] = i
	}
	units := make([]int, len(ids))
	for i, id := range ids {
		u, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("shard: unknown unit %s", id)
		}
		units[i] = u
	}
	runs, _ := p.Execute(units, opts, worker)
	var out []PartialCell
	for i, run := range runs {
		ref := p.Refs[p.Units[units[i]].Cells[0]]
		blob, err := json.Marshal(run.Value)
		if err != nil {
			return nil, fmt.Errorf("shard: encoding %s/%s: %w", ref.Experiment, ref.Cell, err)
		}
		out = append(out, PartialCell{
			Unit:       ids[i],
			Experiment: ref.Experiment,
			Cell:       ref.Cell,
			Result:     blob,
			Seconds:    run.Seconds,
		})
	}
	return out, nil
}

// WritePartial writes a partial as indented JSON, atomically, creating
// parent directories.
func WritePartial(path string, p Partial) error {
	return experiments.WriteJSONFile(path, p)
}

// ReadPartial loads one partial artifact.
func ReadPartial(path string) (Partial, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Partial{}, err
	}
	return decodePartial(path, blob)
}

// decodePartial decodes the partial blob read from path.
func decodePartial(path string, blob []byte) (Partial, error) {
	var p Partial
	if err := json.Unmarshal(blob, &p); err != nil {
		return Partial{}, fmt.Errorf("shard: %s: %w", path, err)
	}
	return p, nil
}

// ReadPartialsDir loads every *.json partial under dir, sorted by
// file name for deterministic error attribution.
func ReadPartialsDir(dir string) ([]Partial, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("shard: no partial artifacts (*.json) under %s", dir)
	}
	sort.Strings(paths)
	out := make([]Partial, len(paths))
	for i, path := range paths {
		if out[i], err = ReadPartial(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}
