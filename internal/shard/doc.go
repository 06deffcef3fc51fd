// Package shard splits a registry run across processes and machines
// without giving up the registry's bit-identical determinism.
//
// Three pieces compose:
//
//   - Build enumerates a filtered run as a cell Manifest — a versioned,
//     deterministic JSON listing of every cell (experiment, name, dedup
//     key, cost estimate), emitted without executing anything. Its hash
//     is a pure function of the registry contents, scale and filter.
//   - PlanShards partitions the manifest's executable units into N
//     cost-balanced shards. Cells sharing a key (the standalone
//     baselines Figs. 4–8 reuse, the synthetic frontier cells shared
//     between harvest-frontier and harvest-trace-frontier) collapse
//     into one unit assigned to exactly one shard. Same manifest + N
//     always yields the same plan.
//   - RunShard executes one shard's units and serializes their results
//     as a Partial; Merge verifies a set of partials against the
//     manifest — every cell covered exactly once, no strays, matching
//     hash/scale/version — and reassembles the exact RunResult a
//     single-process run produces, so the JSON/CSV artifacts and
//     RESULTS.md come out byte-identical.
//
// cmd/perfiso-repro exposes the three as the manifest, run -shard i/N
// and merge subcommands; CI proves merge ≡ single-process on every
// push with a 3-way shard matrix.
//
// The enumeration, the grouping of keyed cells into units, the cost
// order, the pool and the assembly are internal/experiments' Plan, the
// same code Registry.Run uses: Build, RunShard and Merge each plan the
// registry once, and BuildPlan returns the plan with its manifest, so
// an in-process run hashes and executes one enumeration. The
// manifest's lines are experiments.CellRefs and its
// units experiments.Units. UnitRunner binds a plan to unit IDs and
// serializes each executed unit as a PartialCell, so the same cells
// can run from a static plan or be claimed from a work-stealing
// coordinator (internal/dispatch), with identical bytes either way.
package shard
