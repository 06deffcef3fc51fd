package shard

import (
	"encoding/json"
	"fmt"

	"perfiso/internal/experiments"
)

// UnitRunner executes manifest units by ID on the plan it was built
// from. The static path (RunShard runs a planned subset on a local
// pool) and the dynamic path (a dispatch worker runs whatever unit it
// claims next) both serialize a unit to the same PartialCell bytes,
// which is what keeps a dispatched run byte-identical to a static-shard
// run. A UnitRunner is safe for concurrent use — units are independent
// seeded simulations.
type UnitRunner struct {
	// Manifest is the enumeration the runner executes against.
	Manifest Manifest
	plan     *experiments.Plan
	byID     map[string]int
}

// NewUnitRunner enumerates (spec, pattern) against reg once and
// indexes its units by ID.
func NewUnitRunner(reg *experiments.Registry, spec experiments.ScaleSpec, pattern string) (*UnitRunner, error) {
	p, m, err := planRun(reg, spec, pattern)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]int, len(p.Units))
	for i, u := range p.Units {
		byID[u.ID] = i
	}
	return &UnitRunner{Manifest: m, plan: p, byID: byID}, nil
}

// Units lists the manifest's executable units in first-occurrence
// order. The slice is shared; callers must not mutate it.
func (r *UnitRunner) Units() []experiments.Unit { return r.plan.Units }

// Unit resolves a unit ID.
func (r *UnitRunner) Unit(id string) (experiments.Unit, bool) {
	i, ok := r.byID[id]
	if !ok {
		return experiments.Unit{}, false
	}
	return r.plan.Units[i], true
}

// RunUnit executes the named unit's cell and serializes its result.
// The returned cell's bytes depend only on the unit (its seed and
// parameters), never on which process or worker ran it.
func (r *UnitRunner) RunUnit(id string) (PartialCell, error) {
	cells, err := r.RunUnits([]string{id}, experiments.RunOptions{Workers: 1}, "")
	if err != nil {
		return PartialCell{}, err
	}
	return cells[0], nil
}

// RunUnits executes ids on the plan's pool (Plan.Execute: expensive
// first, opts.OnCell and opts.Tracer as there, runs labeled worker)
// and returns their serialized cells in ids order.
func (r *UnitRunner) RunUnits(ids []string, opts experiments.RunOptions, worker string) ([]PartialCell, error) {
	units := make([]int, len(ids))
	for i, id := range ids {
		u, ok := r.byID[id]
		if !ok {
			return nil, fmt.Errorf("shard: unknown unit %s", id)
		}
		units[i] = u
	}
	runs, _ := r.plan.Execute(units, opts, worker)
	var out []PartialCell
	for i, run := range runs {
		ref := r.plan.Refs[r.plan.Units[units[i]].Cells[0]]
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
