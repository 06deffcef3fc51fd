package perfiso

import (
	"perfiso/internal/cluster"
	"perfiso/internal/experiments"
)

// The paper's evaluation runs through the experiment registry
// (DefaultExperimentRegistry, RunExperiments): every figure is a named
// experiment, sized by a ScaleSpec — the full published traces
// (PaperSpec) or a fast test-sized run (TestSpec). Scale sizes one
// single-machine cell (RunColocation).

// Scale sizes a single-machine experiment run.
type Scale = experiments.Scale

// PaperScale is the full §5.3 trace: 500k queries, 100k warmup.
func PaperScale() Scale { return experiments.PaperScale() }

// TestScale is a fast run with enough samples for a stable P99.
func TestScale() Scale { return experiments.TestScale() }

// SingleResult is one single-machine experiment cell.
type SingleResult = experiments.SingleResult

// ProductionResult is the Fig. 10 series from the 650-machine fluid
// model.
type ProductionResult = cluster.ProductionResult

// ProductionConfig parameterizes the fluid model.
type ProductionConfig = cluster.ProductionConfig

// RunProduction runs the fluid model with a custom configuration.
func RunProduction(cfg ProductionConfig) ProductionResult { return cluster.RunProduction(cfg) }

// DefaultProductionConfig mirrors Fig. 10's setup.
func DefaultProductionConfig() ProductionConfig { return cluster.DefaultProductionConfig() }

// RunColocation is the general single-machine cell: IndexServe at qps
// colocated with a CPU bully of the given thread count under pol (nil
// for no isolation).
func RunColocation(qps float64, bullyThreads int, pol Policy, s Scale) SingleResult {
	mode := experiments.BullyOff
	switch {
	case bullyThreads >= 48:
		mode = experiments.BullyHigh
	case bullyThreads > 0:
		mode = experiments.BullyMid
	}
	return experiments.RunSingle(qps, mode, pol, s)
}

// ClusterConfig sizes a discrete-event cluster.
type ClusterConfig = cluster.Config

// Cluster is the assembled TLA/MLA/row deployment.
type Cluster = cluster.Cluster

// ClusterResult is a per-layer latency summary.
type ClusterResult = cluster.Result

// DefaultClusterConfig is the 75-machine §5.3 topology.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// ScaledClusterConfig shrinks the topology to cols columns × 2 rows.
func ScaledClusterConfig(cols int) ClusterConfig { return cluster.ScaledConfig(cols) }

// NewCluster assembles a cluster on eng.
func NewCluster(eng *Engine, cfg ClusterConfig) *Cluster { return cluster.New(eng, cfg) }

// ClusterSecondary selects the colocated batch workload of a cluster
// run.
type ClusterSecondary = cluster.Secondary

// Cluster secondary scenarios.
const (
	SecondaryNone = cluster.NoSecondary
	SecondaryCPU  = cluster.CPUSecondary
	SecondaryDisk = cluster.DiskSecondary
)

// HarvestScale sizes the batch-harvest frontier experiment.
type HarvestScale = experiments.HarvestScale

// HarvestPoint is one policy's cell on the harvest frontier.
type HarvestPoint = experiments.HarvestPoint

// DefaultHarvestScale is the fast default frontier run (12 machines,
// a third of them hot).
func DefaultHarvestScale() HarvestScale { return experiments.DefaultHarvestScale() }

// Experiment is one registered unit of the evaluation: a paper figure
// or an extension, decomposed into independent seeded cells.
type Experiment = experiments.Experiment

// ExperimentCell is one independent seeded simulation of an experiment.
type ExperimentCell = experiments.Cell

// ExperimentRegistry is an ordered, name-keyed set of experiments.
type ExperimentRegistry = experiments.Registry

// ScaleSpec bundles per-family experiment sizes so one flag drives
// every registered experiment.
type ScaleSpec = experiments.ScaleSpec

// RunOptions parameterizes a registry run (scale, workers, filter).
type RunOptions = experiments.RunOptions

// RunResult is a full registry run: per-experiment reports plus
// wall-clock and sequential-equivalent timings.
type RunResult = experiments.RunResult

// DefaultExperimentRegistry returns the registry holding every
// experiment of the reproduction (Figs. 4–10, headline, extensions).
func DefaultExperimentRegistry() *ExperimentRegistry { return experiments.DefaultRegistry() }

// TestSpec sizes every experiment for seconds of wall clock.
func TestSpec() ScaleSpec { return experiments.TestSpec() }

// PaperSpec sizes every experiment at the published §5.3 scale.
func PaperSpec() ScaleSpec { return experiments.PaperSpec() }

// RunExperiments executes the selected experiments' cells on one
// shared worker pool; results are bit-identical at any worker count.
func RunExperiments(opts RunOptions) (RunResult, error) {
	return experiments.DefaultRegistry().Run(opts)
}

// TimelineConfig parameterizes the single-machine DES timeline (the
// discrete-event cross-check of the Fig. 10 fluid model).
type TimelineConfig = experiments.TimelineConfig

// TimelineResult is the timeline series.
type TimelineResult = experiments.TimelineResult

// DefaultTimelineConfig runs one simulated minute under the diurnal
// curve.
func DefaultTimelineConfig() TimelineConfig { return experiments.DefaultTimelineConfig() }

// RunTimeline executes the DES timeline experiment.
func RunTimeline(cfg TimelineConfig) TimelineResult { return experiments.RunTimeline(cfg) }
