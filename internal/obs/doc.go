// Package obs is the harness-side instrumentation layer: run-wide
// counters, the Prometheus renderer and per-cell trace spans. The
// simulated system does not import it.
//
// # The recording
//
// Recording holds the run's counters as lock-free atomics, safe for
// every cell goroutine in a process to share. Snapshot projects them
// into a JSON-serializable struct (folded into timing.json by
// `perfiso-repro run -stats`), and Snapshot.Metrics renders them as
// Prometheus metrics for WriteProm and PromHandler. Counting is a pure
// observation: results are byte-identical with or without a recording.
//
// # The nil contract
//
// Every Recording method does nothing on a nil receiver, so a holder
// keeps a plain *Recording that stays nil unless counting was asked
// for — the same contract *simtrace.Tracer uses. There is no interface
// and no no-op implementation. A recording counts the sim-domain
// counters each finished cell folds in (below).
//
// # The per-cell fold
//
// Sim-domain counts are not reported event by event. The components
// that make the decisions keep plain counters of their own:
//
//   - sim.Engine: events pushed and popped, the event queue's
//     high-water mark, and the virtual clock (Engine.Counts, Now);
//   - core.BlindIsolation: Grows, Shrinks and Deferrals (grow attempts
//     held back by the holdoff);
//   - core.MemoryGuard: Kills;
//   - harvest.Scheduler: its placement log, Preemptions and
//     FailureRequeues.
//
// When a cell finishes, internal/experiments reads them once and adds
// them to the process-wide recording with AddCell. SetDefault installs
// that recording (run -stats does, as does the benchmark's traced
// pass); with none installed the fold does nothing. RNG draws are counted inside internal/sim instead (see
// sim.SetRNGAccounting) and stamped into the Snapshot by the caller.
//
// # Trace spans
//
// Span is one cell execution: which experiment, cell, unit and worker
// ran when and for how long. The experiment pool (in process or on a
// shard) appends spans to a TraceBuffer when tracing is enabled
// (`-trace`), and the merge step reassembles the buffers of a sharded
// run into one run-wide trace.jsonl. Like timing.json, traces are
// observational: they never feed back into results and carry no
// byte-identity guarantee.
package obs
