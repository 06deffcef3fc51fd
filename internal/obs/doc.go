// Package obs is the harness-side instrumentation layer: run-wide
// counters, the Prometheus renderer and per-cell trace spans. The
// simulated system does not import it.
//
// # The recording
//
// Recording holds the run's counters as lock-free atomics, safe for
// every cell goroutine and dispatch worker in a process to share.
// Snapshot projects them into a JSON-serializable struct (folded into
// timing.json by `perfiso-repro run -stats`), and Snapshot.Metrics
// renders them for the Prometheus-text /metrics endpoint of
// `perfiso-repro work -metrics-addr`. Counting is a pure
// observation: results are byte-identical with or without a recording.
//
// # The nil contract
//
// Every Recording method does nothing on a nil receiver, so a holder
// keeps a plain *Recording that stays nil unless counting was asked
// for — the same contract *simtrace.Tracer uses. There is no interface
// and no no-op implementation. A recording counts two things: the
// sim-domain counters each finished cell folds in (below), and the
// uploads a dispatch worker had accepted, with their latencies
// (dispatch.Worker.Tracker). Claims, steals, lease expiries and stale
// uploads are the dispatch coordinator's own book-keeping, which
// timing.json's dispatch section and the coordinator's /metrics both
// read; a recording does not copy them.
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
// Span is one cell execution: which experiment/cell (and, for
// dispatched runs, which unit and worker) ran when and for how long.
// The experiment pool, the static shard runner and the dispatch
// coordinator append spans to a TraceBuffer when tracing is enabled
// (`-trace`), and the merge step reassembles the buffers of a sharded
// run into one run-wide trace.jsonl. Like timing.json, traces are
// observational: they never feed back into results and carry no
// byte-identity guarantee.
package obs
