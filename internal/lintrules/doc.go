// Package lintrules implements perfiso-lint, the repo's determinism
// linter: five static analyzers that enforce the
// bit-identical-reproduction contract at compile time. Every layer of
// the reproduction — the experiment registry, the cell pool, shard
// merge, and the engine's (at, seq) event order — rests on one
// invariant: a cell's result is a pure function of its seed, so
// results/ is byte-identical at any worker count. The differential,
// fuzz, and golden tests enforce that dynamically, after a violation
// lands; these analyzers reject the statically detectable violation
// classes before they do.
//
// # Rules
//
// walltime — forbids reading the wall clock: time.Now, Since, Until,
// Sleep, Tick, After, AfterFunc, NewTimer, NewTicker, whether called
// or passed as a value. Simulated code gets time from sim.Engine.Now;
// a host clock read anywhere in a cell's data flow makes the result a
// function of the machine, not the seed. The rule is module-wide on
// purpose: real timing code (shard/pool wall costs for timing.json,
// the benchmark's host timing) annotates each read with //perfiso:allow
// walltime <reason>, so every clock read in the tree is auditable.
//
// globalrand — forbids the top-level math/rand and math/rand/v2
// functions. The process-global source is seeded per process (rand/v2
// cannot even be re-seeded), so its draws differ across runs and
// workers. Randomness must be derived from the cell seed via sim.RNG
// or sim.SeededRNG; the explicit-source constructors (rand.New,
// NewSource, NewPCG, NewChaCha8, NewZipf) are tolerated.
//
// maporder — flags `range` over a map whose body is order-sensitive:
// appending to a slice, accumulating a float (FP addition does not
// commute under rounding), writing output (Write*/Fprint*/Print*/
// Encode), sending on a channel, or scheduling a sim event (seq is
// stamped at schedule time, so scheduling from a map range scrambles
// the FIFO tie-break). Go randomizes map iteration order on purpose;
// the fix is sorted-key iteration. The canonical prelude — a body
// that only collects keys into a slice for sorting — is recognized
// and exempt, as are order-insensitive bodies (integer sums, min/max,
// writes into another map, deletes).
//
// nogoroutine — forbids `go` statements and unbuffered channel
// construction in cell-execution packages (the scope list is
// cellPackages in analysis.go). A cell is a single-threaded
// deterministic computation; the scheduler's goroutine interleaving
// is nondeterministic, and an unbuffered channel is a handoff that
// implies one. Concurrency belongs to the experiments pool, which
// parallelizes across whole cells — the pool's own goroutine carries the //perfiso:allow nogoroutine annotation
// marking that boundary.
//
// seqcontract — forbids re-stamping engine sequencing fields (at,
// seq, slot) of sim types outside internal/sim. Only sim.Engine,
// sim.Agenda and the fixed-delay lanes' sim.Delay.After make event
// order total by stamping seq at schedule time, so event ordering
// built anywhere else has no reproducibility contract. The engine's
// event queue is unexported, so the compiler already rejects building
// or mutating one outside the package. Holding an opaque sim.Timer
// (including the zero value) remains legal.
//
// # Suppressions
//
// One finding is suppressed by an adjacent comment:
//
//	//perfiso:allow <analyzer> <reason>
//
// placed at the end of the offending line or alone on the line above.
// The reason is mandatory, and a malformed or unknown-analyzer
// directive is itself reported (pseudo-analyzer "allow") — a typo can
// never silently disable a rule. Whole packages are exempted by
// `allow <analyzer|*> <pkg-path-prefix>` entries in the committed
// lint.conf at the module root; see that file for the bar an entry
// has to clear.
//
// # Driver
//
// cmd/perfiso-lint is the multichecker (-json for machine-readable
// findings, -only to run a subset, exit 1 on findings), and
// scripts/lint.sh is the invocation CI and nightly share. The
// framework underneath (Analyzer/Pass in analysis.go, the
// `go list -export` + go/importer loader in load.go) is a stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis shape: the
// build environment is hermetic, so x/tools cannot be pinned in
// go.mod; if it ever becomes available the analyzers port over
// mechanically. Fixtures under testdata/ are exercised by the
// linttest harness, an analysistest stand-in using the same
// `// want` convention.
package lintrules
