package experiments

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"time"

	"perfiso/internal/obs"
	"perfiso/internal/simtrace"
	"perfiso/internal/workload"
)

// ScaleSpec bundles the per-family experiment sizes so a single
// -scale flag drives every registered experiment: single-machine
// figures take Single, the Fig. 9 cluster takes Cluster, the harvest
// frontier takes Harvest, and the DES timeline takes Timeline. The
// Fig. 10 fluid model is cheap at full size and always runs the
// default production hour.
type ScaleSpec struct {
	// Name labels the spec in artifacts and reports ("test", "paper").
	Name string
	// Single sizes the single-machine cells (Figs. 4–8, headline,
	// full stack).
	Single Scale
	// Cluster sizes the Fig. 9 discrete-event cluster.
	Cluster Fig9Scale
	// Harvest sizes the batch-harvest frontier.
	Harvest HarvestScale
	// BatchTrace shapes the replayed secondary of the trace-replay
	// frontier (which reuses Harvest for its cluster and backlog).
	BatchTrace workload.BatchTraceConfig
	// Timeline sizes the DES timeline cross-check.
	Timeline TimelineConfig
}

// TestSpec sizes every experiment for seconds of wall clock while
// preserving the published shapes — the scale RESULTS.md is generated
// at.
func TestSpec() ScaleSpec {
	return ScaleSpec{
		Name:       "test",
		Single:     TestScale(),
		Cluster:    TestFig9Scale(),
		Harvest:    DefaultHarvestScale(),
		BatchTrace: DefaultBatchTraceConfig(),
		Timeline:   DefaultTimelineConfig(),
	}
}

// PaperSpec sizes every experiment at the published §5.3 scale.
func PaperSpec() ScaleSpec {
	return ScaleSpec{
		Name:       "paper",
		Single:     PaperScale(),
		Cluster:    PaperFig9Scale(),
		Harvest:    PaperHarvestScale(),
		BatchTrace: PaperBatchTraceConfig(),
		Timeline:   PaperTimelineConfig(),
	}
}

// Cell is one independent seeded simulation — a single point of a
// figure's sweep. Cells share nothing: each builds its own engine from
// its own seed, so a pool may run them in any order, on any number of
// workers, and produce results bit-identical to a sequential run.
type Cell struct {
	// Name identifies the cell within its experiment
	// (e.g. "bully=high/qps=2000").
	Name string
	// Key, when non-empty, marks this cell interchangeable with every
	// other cell carrying the same Key: the same seeded simulation, so
	// the same result. Registry.Run executes one cell per key and
	// shares its result — this is how the standalone baselines that
	// Figs. 4–8 and the headline all need are run once instead of five
	// times.
	Key string
	// Cost estimates the cell's execution cost in arbitrary but
	// mutually comparable units (roughly simulated query-equivalents).
	// The pool schedules expensive cells first and the shard planner
	// balances shards by it; zero means "unknown", treated as 1.
	Cost float64
	// Run executes the cell and returns its result.
	Run func() any
	// TracedRun, when set, executes the cell with a sim-domain tracer
	// attached. It must return the exact result Run would — tracers are
	// pure observers — so a traced registry run stays byte-identical to
	// an untraced one. Cells without it simply run untraced.
	TracedRun func(tr *simtrace.Tracer) any
}

// CostOrDefault is the planning cost: Cost, or 1 when unset.
func (c Cell) CostOrDefault() float64 {
	if c.Cost > 0 {
		return c.Cost
	}
	return 1
}

// Metric is one named value of a result row.
type Metric struct {
	Name  string
	Value float64
}

// Row is the flat, machine-readable projection of one cell's result,
// emitted into the JSON/CSV artifacts.
type Row struct {
	Cell    string
	Metrics []Metric
}

// Report is an experiment's rendered outcome: the human table the
// figure runners have always printed plus flat rows for artifacts.
// Series, for experiments that model timelines, carries per-cell time
// series emitted into series.csv next to the scalar cells.csv;
// Forensics carries per-cell tail blame tables emitted into
// forensics.csv.
type Report struct {
	Table     string
	Rows      []Row
	Series    []SeriesRow
	Forensics []ForensicsRow
}

// Experiment is one registered unit of the paper's evaluation: a
// figure, the headline, or one of the repo's extensions. Cells lists
// its independent seeded simulations at a given scale; Assemble folds
// the completed cell results (in Cells order) back into the figure's
// typed value and its Report.
type Experiment struct {
	// Name is the registry key and the -run filter target ("fig4").
	Name string
	// Describe is the one-line summary shown by -list.
	Describe string
	// Cells returns the independent cells at the given scale.
	Cells func(s ScaleSpec) []Cell
	// Assemble folds cell results into the typed figure value and its
	// report. cells is the exact slice Cells returned for this run and
	// results is index-aligned with it, so row builders pair names with
	// results without reconstructing the cell list.
	Assemble func(s ScaleSpec, cells []Cell, results []any) (any, Report)
	// DecodeResult rebuilds one cell result from its JSON encoding —
	// the hook the shard merger uses to reassemble a run from partial
	// artifacts produced by other processes. Experiments without it
	// cannot be sharded across processes.
	DecodeResult func(data []byte) (any, error)
}

// DecodeJSONResult is the DecodeResult implementation for experiments
// whose cells all return a T: every numeric field round-trips exactly
// through encoding/json (shortest-representation floats, integral
// int64s), so a decoded result is bit-identical to the in-process one.
func DecodeJSONResult[T any](data []byte) (any, error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// Registry is an ordered, name-keyed set of experiments.
type Registry struct {
	byName map[string]int
	order  []Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Register adds an experiment, rejecting empty or duplicate names and
// missing hooks.
func (r *Registry) Register(e Experiment) error {
	if e.Name == "" {
		return fmt.Errorf("experiments: register: empty name")
	}
	if e.Cells == nil || e.Assemble == nil {
		return fmt.Errorf("experiments: register %q: nil Cells or Assemble", e.Name)
	}
	if _, dup := r.byName[e.Name]; dup {
		return fmt.Errorf("experiments: register %q: name already taken", e.Name)
	}
	r.byName[e.Name] = len(r.order)
	r.order = append(r.order, e)
	return nil
}

// MustRegister is Register that panics on error, for package setup.
func (r *Registry) MustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Names lists the registered experiments in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	for i, e := range r.order {
		out[i] = e.Name
	}
	return out
}

// Get looks up an experiment by name.
func (r *Registry) Get(name string) (Experiment, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Experiment{}, false
	}
	return r.order[i], true
}

// NoMatchError is the zero-selection failure shared by run, manifest
// and merge: it names every registered experiment so a typo'd -run
// pattern fails loudly instead of silently writing empty artifacts.
func (r *Registry) NoMatchError(pattern string) error {
	return fmt.Errorf("experiments: filter %q matches no experiments; valid names: %s",
		pattern, strings.Join(r.Names(), ", "))
}

// Select returns the experiments whose names match filter, in
// registration order. A nil filter selects everything.
func (r *Registry) Select(filter *regexp.Regexp) []Experiment {
	if filter == nil {
		return append([]Experiment(nil), r.order...)
	}
	var out []Experiment
	for _, e := range r.order {
		if filter.MatchString(e.Name) {
			out = append(out, e)
		}
	}
	return out
}

// RunOptions parameterizes a registry run, and the pool of
// Plan.Execute, which ignores Spec and Filter (the plan fixed both).
type RunOptions struct {
	// Spec sizes every experiment.
	Spec ScaleSpec
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Filter restricts the run to matching experiment names (nil runs
	// all).
	Filter *regexp.Regexp
	// OnCell, when set, is called after each cell completes. Calls are
	// serialized.
	OnCell func(experiment, cell string, elapsed time.Duration)
	// Tracer, when set, collects one span per executed cell.
	Tracer *obs.TraceBuffer
	// OnSimTrace, when set, attaches a sim-domain tracer to every cell
	// that supports one (Cell.TracedRun) and hands over each captured
	// trace as soon as its cell ends, in completion order. Calls are
	// serialized, and the pool drops the tracer once the call returns,
	// so at most Workers traces are held at once. Keyed-dedup cells
	// deliver once, under the executed cell's name.
	OnSimTrace func(experiment, cell string, tr *simtrace.Tracer)
}

// ExperimentResult is one experiment's assembled outcome.
type ExperimentResult struct {
	Name      string
	Describe  string
	CellNames []string
	// Value is the typed figure result (SweepResult, Fig9, …).
	Value any
	// Report carries the rendered table and the artifact rows.
	Report Report
	// CellSeconds is the summed wall-clock of this experiment's cells —
	// what a sequential run would have spent on it.
	CellSeconds float64
}

// RunResult is a full registry run.
type RunResult struct {
	Spec        ScaleSpec
	Workers     int
	Experiments []ExperimentResult
	// ManifestHash, when set, identifies the cell manifest this run
	// covers (see internal/shard). It is a pure function of the
	// registry contents, scale and filter, so a single-process run and
	// a merged sharded run of the same selection carry the same hash —
	// the provenance line RenderMarkdownWith emits stays byte-identical.
	ManifestHash string
	// CellCount is the number of simulations actually executed.
	CellCount int
	// SharedCells counts the logical cells that reused another cell's
	// result via a matching Key instead of re-running it.
	SharedCells int
	// Elapsed is the wall-clock of the whole pooled run.
	Elapsed time.Duration
	// SequentialSeconds sums every cell's wall-clock — the sequential
	// baseline the pool's speedup is measured against.
	SequentialSeconds float64
	// CellTimings lists each executed cell's wall-clock cost, in unit
	// (first-occurrence) order.
	CellTimings []CellTiming
	// Phases breaks the run's wall time into enumerate/execute/assemble.
	Phases []PhaseTiming
}

// Value returns the typed result of the named experiment, or nil if it
// was not part of the run.
func (r RunResult) Value(name string) any {
	for _, e := range r.Experiments {
		if e.Name == name {
			return e.Value
		}
	}
	return nil
}

// Run plans the selected experiments (Registry.Plan) and runs the
// plan (Plan.Run).
func (r *Registry) Run(opts RunOptions) (RunResult, error) {
	p, err := r.Plan(opts.Spec, opts.Filter)
	if err != nil {
		return RunResult{}, err
	}
	return p.Run(opts)
}
