// Package obs is the zero-cost-when-off instrumentation layer shared
// by the sim engine, the PerfIso controller, the harvest scheduler and
// the dispatch fleet.
//
// # The tracker contract
//
// Tracker is a pure observer: implementations MUST NOT influence the
// simulation or scheduling decisions of the code that calls them —
// results stay byte-identical whether tracking is off, on, or swapped
// mid-run. Every instrumented layer holds a Tracker and reports its
// hot-path events through it:
//
//   - sim.Engine: events pushed/popped (with heap depth, which leaves
//     out events waiting in fixed-delay lanes) and virtual time
//     advanced per Run.
//   - core.BlindIsolation / core.MemoryGuard: buffer grow/shrink
//     decisions, grow attempts deferred by the holdoff, and
//     memory-guard evictions.
//   - harvest.Scheduler: placements, preemptions and failure requeues.
//   - dispatch.Coordinator / dispatch.Worker: claims, steals, lease
//     expiries, stale uploads, and upload latencies.
//
// Two implementations exist:
//
//   - The noop tracker (NopTracker, the package default): every method
//     is an empty body and Enabled reports false. Hot paths guard
//     their calls with a cached Enabled flag, so production runs pay a
//     single predictable branch per event — nothing is allocated,
//     counted or locked.
//   - The recording tracker (NewRecording): lock-free atomic counters
//     safe for concurrent use by every cell and worker in a process.
//     Snapshot projects the counters into a JSON-serializable struct
//     (folded into timing.json by `perfiso-repro run -stats`), and
//     Metrics renders them for the Prometheus-text /metrics endpoint
//     served by `perfiso-repro serve`.
//
// Layers pick up the process-wide tracker via Default at construction
// time; SetDefault installs a recording tracker before a run (the
// `-stats` flag does this) and individual components accept an
// explicit tracker via their SetTracker methods for tests.
//
// # Trace spans
//
// Span is one cell execution: which experiment/cell (and, for
// dispatched runs, which unit and worker) ran when and for how long.
// The experiment pool, the static shard runner and the dispatch
// coordinator append spans to a TraceBuffer when tracing is enabled
// (`-trace`), and the merge step reassembles the buffers of a sharded
// run into one run-wide trace.jsonl. Like timing.json, traces are
// observational: they never feed back into results and carry no
// byte-identity guarantee.
package obs
