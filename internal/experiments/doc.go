// Package experiments reproduces every figure of the paper's evaluation
// (§5–§6): the single-machine colocation sweeps of Figs. 4–8, the
// cluster runs of Figs. 9–10, the §1 utilization headline, and the
// repo's extensions (full-stack scenario, DES timeline, batch-harvest
// frontier). Absolute values differ from the paper's testbed (this is a
// simulator, not Bing hardware); the calibration tests assert the
// published *shape* — who wins, by what rough factor, where the
// crossovers fall.
//
// Every experiment registers in the Registry as a named set of
// independent Cells — one seeded simulation per sweep point — plus an
// Assemble hook that folds completed cell results back into the
// figure's typed value and table. The single-machine experiments
// (Figs. 4–8, the headline and the controller ablations) are declared
// as data in sweep.go: a table of sweeps, each a list of points (cell
// name, table label, load, bully, policy, baseline cell), run and
// reported by one generic path. Cells share nothing (each builds its
// own engine from its own seed), so a pool executes them concurrently
// with results bit-identical to a sequential run.
//
// Every run path goes through one Plan (plan.go). Registry.Plan
// enumerates the selected experiments' cells once, as CellRefs (the
// lines of a shard manifest), and groups the cells sharing a Key into
// one executable Unit (GroupUnits). CostOrder, a stable sort by cost,
// is the launch order of the pool and the shard planner's LPT order.
// Plan.Execute runs a list of units on the pool and does the per-cell
// timing, span and OnCell book-keeping, and hands each unit's sim
// trace to OnSimTrace as the unit ends; Plan.Assemble folds one result
// per unit back into each experiment through its Assemble hook, giving
// a shared unit's wall time to the experiment of its first cell.
// Plan.Run is Execute and Assemble in one process, and Registry.Run is
// Registry.Plan then Plan.Run; internal/shard runs units and merges
// partials through the same three.
//
// Reports flow out three ways: the classic ASCII tables, flat JSON/CSV
// artifact rows (WriteArtifacts), and the committed markdown
// reproduction report (RenderMarkdownWith → RESULTS.md), which CI
// regenerates and diffs as an evaluation-regression gate. Every
// artifact writer goes through WriteAtomic (temp file, rename), so a
// failed run leaves no half-written file.
package experiments
