package experiments

import (
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfiso/internal/obs"
	"perfiso/internal/simtrace"
)

// CellRef names one logical cell of a planned run. It is also the line
// of a shard manifest, so its JSON encoding is part of the manifest
// hash.
type CellRef struct {
	Experiment string `json:"experiment"`
	Cell       string `json:"cell"`
	// Key, when non-empty, marks the cell interchangeable with every
	// other cell carrying the same key (same seeded simulation).
	Key string `json:"key,omitempty"`
	// Cost is the planning weight (≥ 1).
	Cost float64 `json:"cost"`
}

// UnitID names the executable unit of a cell: its dedup key, or the
// experiment/cell pair when unkeyed. The prefixes keep the two
// namespaces from colliding.
func (c CellRef) UnitID() string {
	if c.Key != "" {
		return "key:" + c.Key
	}
	return "cell:" + c.Experiment + "/" + c.Cell
}

// Unit is one executable simulation: the group of logical cells that
// share its result. Cells[0] is the cell that runs; the others receive
// its result.
type Unit struct {
	ID   string
	Cost float64
	// Cells indexes the grouped cell list, in first-occurrence order.
	Cells []int
}

// GroupUnits groups cells into executable units, in first-occurrence
// order. Two unkeyed cells with the same experiment/cell name are an
// error: nothing could tell their results apart.
func GroupUnits(cells []CellRef) ([]Unit, error) {
	byID := map[string]int{}
	var units []Unit
	for i, c := range cells {
		id := c.UnitID()
		if ui, ok := byID[id]; ok {
			if c.Key == "" {
				return nil, fmt.Errorf("experiments: duplicate unkeyed cell %s/%s", c.Experiment, c.Cell)
			}
			units[ui].Cells = append(units[ui].Cells, i)
			continue
		}
		byID[id] = len(units)
		units = append(units, Unit{ID: id, Cost: c.Cost, Cells: []int{i}})
	}
	return units, nil
}

// CostOrder returns unit indices sorted expensive-first. The sort is
// stable, so equal costs keep first-occurrence order. It is the launch
// order of the pool, the shard planner's LPT order and the dispatch
// queue's claim order: with a balanced pool the wall clock is bounded
// by the last unit to start, so the big simulations go first.
func CostOrder(units []Unit) []int {
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return units[order[a]].Cost > units[order[b]].Cost
	})
	return order
}

// PoolSize reports the worker count a run with the given request and
// unit count uses: <= 0 means GOMAXPROCS, and there is no point in
// more workers than units.
func PoolSize(workers, units int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, units))
}

// Plan is a filtered run enumerated once: the selected experiments,
// the cells each returned, and those cells grouped into executable
// units. Registry.Run, the shard runner, the shard merger and the
// dispatch workers all execute and assemble through a Plan.
type Plan struct {
	// Refs lists every logical cell, experiment by experiment, in
	// registration order.
	Refs []CellRef
	// Units groups Refs into executable units (Unit.Cells indexes
	// Refs).
	Units []Unit

	spec  ScaleSpec
	exps  []Experiment
	cells [][]Cell // per experiment, the exact slice its Cells hook returned
	flat  []Cell   // index-aligned with Refs
	unit  []int    // per Refs entry, its index in Units
	// enumerate is the wall time Registry.Plan took, reported as Run's
	// enumerate phase.
	enumerate time.Duration
}

// Plan enumerates the experiments matching filter (nil selects all)
// without running anything. A filter matching nothing is an error
// naming every registered experiment.
func (r *Registry) Plan(spec ScaleSpec, filter *regexp.Regexp) (*Plan, error) {
	start := time.Now() //perfiso:allow walltime phase timing feeds timing.json only
	selected := r.Select(filter)
	if len(selected) == 0 {
		pattern := ""
		if filter != nil {
			pattern = filter.String()
		}
		return nil, r.NoMatchError(pattern)
	}
	p := &Plan{spec: spec, exps: selected, cells: make([][]Cell, len(selected))}
	n := 0
	for ei, e := range selected {
		p.cells[ei] = e.Cells(spec)
		n += len(p.cells[ei])
	}
	p.Refs, p.flat = make([]CellRef, 0, n), make([]Cell, 0, n)
	for ei, e := range selected {
		for _, c := range p.cells[ei] {
			p.Refs = append(p.Refs, CellRef{Experiment: e.Name, Cell: c.Name, Key: c.Key, Cost: c.CostOrDefault()})
			p.flat = append(p.flat, c)
		}
	}
	units, err := GroupUnits(p.Refs)
	if err != nil {
		return nil, err
	}
	p.Units = units
	p.unit = make([]int, len(p.Refs))
	for ui, u := range units {
		for _, ri := range u.Cells {
			p.unit[ri] = ui
		}
	}
	p.enumerate = time.Since(start) //perfiso:allow walltime phase timing feeds timing.json only
	return p, nil
}

// Run executes every unit of the plan on one shared worker pool —
// cells from different experiments interleave freely, so the wall
// clock is bounded by the slowest cell, not the slowest experiment —
// then assembles each experiment's result. Results are deterministic:
// parallelism changes only the wall clock. opts.Spec and opts.Filter
// are the plan's own and are ignored.
func (p *Plan) Run(opts RunOptions) (RunResult, error) {
	all := make([]int, len(p.Units))
	for i := range all {
		all[i] = i
	}
	runs, elapsed := p.Execute(all, opts, "")

	assembleStart := time.Now() //perfiso:allow walltime phase timing feeds timing.json only
	out, err := p.Assemble(runs, nil)
	if err != nil {
		return RunResult{}, err
	}
	out.Workers = PoolSize(opts.Workers, len(p.Units))
	out.Elapsed = elapsed
	out.Phases = []PhaseTiming{
		{Phase: "enumerate", Seconds: p.enumerate.Seconds()},
		{Phase: "execute", Seconds: elapsed.Seconds()},
		{Phase: "assemble", Seconds: time.Since(assembleStart).Seconds()}, //perfiso:allow walltime phase timing feeds timing.json only
	}
	return out, nil
}

// UnitRun is one executed unit: its result, who ran it and its wall
// seconds.
type UnitRun struct {
	Value   any
	Worker  string
	Seconds float64
}

// Execute runs the given units (indices into p.Units) on a pool of
// opts.Workers goroutines, most expensive first, and returns their
// runs index-aligned with units plus the pool's wall time. opts.Spec
// and opts.Filter are the plan's own and are ignored. worker labels
// the runs and spans; empty labels each by its pool goroutine
// ("pool/<i>").
//
// Every cell owns its engine and seed, so results are bit-identical
// at any worker count. OnCell calls and Tracer spans are serialized.
// A unit's sim trace goes to OnSimTrace as soon as the unit ends, in
// completion order, under the name of the cell that ran; the calls
// are serialized too, and the pool drops each tracer once its call
// returns, so at most opts.Workers tracers are alive at once. A
// panicking cell stops its worker, and the first panic is re-raised
// here once the remaining workers drain.
func (p *Plan) Execute(units []int, opts RunOptions, worker string) ([]UnitRun, time.Duration) {
	runs := make([]UnitRun, len(units))
	sub := make([]Unit, len(units))
	for i, u := range units {
		sub[i] = p.Units[u]
	}
	order := CostOrder(sub)

	var next atomic.Int64
	var mu, deliverMu sync.Mutex
	deliver := func(ref CellRef, tr *simtrace.Tracer) {
		deliverMu.Lock()
		defer deliverMu.Unlock()
		opts.OnSimTrace(ref.Experiment, ref.Cell, tr)
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	start := time.Now() //perfiso:allow walltime pool wall time feeds timing.json only
	for w := 0; w < PoolSize(opts.Workers, len(units)); w++ {
		label := worker
		if label == "" {
			label = fmt.Sprintf("pool/%d", w)
		}
		wg.Add(1)
		//perfiso:allow nogoroutine the pool is the concurrency boundary cells run under
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				first := sub[i].Cells[0]
				ref, c := p.Refs[first], p.flat[first]
				cellStart := time.Now() //perfiso:allow walltime cell wall cost feeds timing.json only
				var v any
				var tr *simtrace.Tracer
				if opts.OnSimTrace != nil && c.TracedRun != nil {
					tr = simtrace.New()
					v = c.TracedRun(tr)
				} else {
					v = c.Run()
				}
				d := time.Since(cellStart) //perfiso:allow walltime cell wall cost feeds timing.json only
				runs[i] = UnitRun{Value: v, Worker: label, Seconds: d.Seconds()}
				mu.Lock()
				if opts.Tracer != nil {
					opts.Tracer.Add(obs.Span{
						Experiment: ref.Experiment,
						Cell:       ref.Cell,
						Unit:       sub[i].ID,
						Worker:     label,
						StartMs:    float64(cellStart.Sub(start)) / 1e6,
						DurationMs: d.Seconds() * 1e3,
					})
				}
				if opts.OnCell != nil {
					opts.OnCell(ref.Experiment, ref.Cell, d)
				}
				mu.Unlock()
				if tr != nil {
					deliver(ref, tr)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) //perfiso:allow walltime pool wall time feeds timing.json only
	if panicked != nil {
		panic(panicked)
	}
	return runs, elapsed
}

// CheckResult decodes data as the result of the unit with the given
// ID, through the DecodeResult hook of the experiment of each cell in
// that unit, as merging the run will, and returns the first error.
func (p *Plan) CheckResult(unit string, data []byte) error {
	for _, u := range p.Units {
		if u.ID != unit {
			continue
		}
		for _, ri := range u.Cells {
			ref := p.Refs[ri]
			for _, e := range p.exps {
				if e.Name != ref.Experiment {
					continue
				}
				if e.DecodeResult == nil {
					return fmt.Errorf("experiments: experiment %q has no DecodeResult", e.Name)
				}
				if _, err := e.DecodeResult(data); err != nil {
					return fmt.Errorf("experiments: decoding %s/%s: %w", e.Name, ref.Cell, err)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("experiments: unknown unit %s", unit)
}

// Assemble folds one run per unit (index-aligned with p.Units) back
// into every selected experiment, in registration order, and returns
// the run's deterministic result. result, when set, yields the value
// of one logical cell of e whose unit is u; nil takes the run's Value.
// A shared unit's wall seconds go to the experiment of its first
// cell. Cell timings are listed in unit order.
func (p *Plan) Assemble(runs []UnitRun, result func(e Experiment, c Cell, u int) (any, error)) (RunResult, error) {
	out := RunResult{Spec: p.spec, CellCount: len(p.Units), SharedCells: len(p.Refs) - len(p.Units)}
	for u, unit := range p.Units {
		ref := p.Refs[unit.Cells[0]]
		out.CellTimings = append(out.CellTimings, CellTiming{
			Experiment: ref.Experiment,
			Cell:       ref.Cell,
			Worker:     runs[u].Worker,
			Seconds:    runs[u].Seconds,
		})
	}
	ri := 0
	for ei, e := range p.exps {
		cells := p.cells[ei]
		results := make([]any, len(cells))
		names := make([]string, len(cells))
		var cellSec float64
		for ci, c := range cells {
			u := p.unit[ri]
			if p.Units[u].Cells[0] == ri {
				cellSec += runs[u].Seconds
			}
			v := runs[u].Value
			if result != nil {
				var err error
				if v, err = result(e, c, u); err != nil {
					return RunResult{}, err
				}
			}
			results[ci], names[ci] = v, c.Name
			ri++
		}
		value, report := e.Assemble(p.spec, cells, results)
		out.Experiments = append(out.Experiments, ExperimentResult{
			Name:        e.Name,
			Describe:    e.Describe,
			CellNames:   names,
			Value:       value,
			Report:      report,
			CellSeconds: cellSec,
		})
		out.SequentialSeconds += cellSec
	}
	return out, nil
}
