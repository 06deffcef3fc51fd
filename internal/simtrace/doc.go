// Package simtrace captures what happens *inside* the simulated
// system — per-query lifecycle spans, per-core execution slices, and
// controller decisions — on the simulated clock, and decomposes each
// query's latency into attributed causes.
//
// It is the sim-domain counterpart of internal/obs, which instruments
// the harness (wall clock, process-wide). Everything here is stamped
// with sim time plus a per-tracer sequence number, so a trace is a
// pure function of the seed: re-running the same cell yields the same
// bytes, at any worker count, on any machine.
//
// # Span model
//
// A Tracer accumulates four kinds of events:
//
//   - Slices ("X" in Chrome trace-event terms): a thread occupying a
//     core for a duration. One track per core, named by metadata.
//   - Async begin/end pairs ("b"/"e"): one per query, keyed by the
//     query id, from arrival to completion or deadline drop.
//   - Instants ("i"): blind-isolation decisions (buffer grow/shrink
//     and holdoff deferrals) and query milestones such as
//     speculative-retry checkpoints.
//   - Track metadata: human-readable names for the core tracks.
//
// Event emission is nil-gated: every Tracer method is safe on a nil
// receiver, and instrumented packages keep a plain pointer field that
// stays nil unless tracing was requested, so the tracing-off hot path
// pays one predictable branch. *obs.Recording follows the same nil
// contract. A Tracer is the only sim-domain event stream: counts such
// as buffer grows or harvest placements are not events here but
// counters the components keep, folded into the run's obs.Recording
// once per cell.
//
// # Event storage and export
//
// Recording formats nothing. An event keeps its name and category as
// the caller's strings, which are constants or long-lived process
// names, and carries at most MaxArgs inline typed args built by Int,
// String or Bool. Events go into fixed-size chunks, so a
// capture never copies earlier events as it grows. With storage warm,
// recording allocates nothing, and every method on a nil tracer
// allocates nothing; TestRecordingDoesNotAllocate pins both.
//
// Formatting happens once, in WriteChrome. It orders sequence numbers
// rather than the events themselves, and renders each event into one
// reused byte buffer with strconv.Append*. Every arg value is written
// as a JSON string ("tid":"12", "dropped":"true"), whatever its type.
// A golden file (testdata/cell.chrome.json) pins the bytes.
//
// The order is (TS, Seq). Seq is the capture index, so the events in
// capture order, sorted stably by TS alone, are already in that order.
// The sort is an LSD radix sort, which is stable: one counting pass per
// byte of the key, least significant byte first, each pass keeping the
// order the previous ones left among equal bytes. The key is the time
// with its sign bit flipped, so that unsigned order is signed time
// order and a negative time (the golden trace has one at -5) sorts
// first, less the smallest key of the capture; only the bytes that span
// the capture's time range take a pass, five for a cell of a few
// simulated seconds. The quotes around each string are part of the
// constant runs between them, and args are read in place rather than
// copied.
//
// ValidateChrome reads a trace in one pass. Its hand-written scanner
// checks JSON syntax and applies the per-event rules as each event
// goes by, without building the event list. It accepts exactly the
// inputs that a json.Unmarshal of the whole file plus the same rules
// would accept, down to encoding/json's quirks: case-folded keys,
// duplicate keys, null fields and its nesting limit. A repeated
// traceEvents key makes encoding/json decode later arrays over earlier
// elements, and only that case gets a second, element-keeping pass.
// The Unmarshal-based validator lives on in validate_ref_test.go as
// the oracle of FuzzValidateChrome, which requires the two to agree on
// every input.
//
// The scanner has fast paths for what WriteChrome writes, each exact:
//
//   - Field names dispatch on the key's length and bytes. For an ASCII
//     key, encoding/json's case folding is ASCII case folding, and a
//     byte ORed with 0x20 equals a lower-case letter only when it is
//     that letter in either case, so the key's ORed bytes, packed into
//     one word, name the field. Other keys fold with bytes.EqualFold.
//   - A number literal's digits are read into an integer as the
//     scanner checks its syntax. An integer of at most 18 digits fits
//     an int64 exactly. A decimal of at most 15 digits with no exponent
//     is m/10^k with m < 10^15 < 2^53 and k <= 14, so m and 10^k are
//     exact float64s, and IEEE 754 division rounds their quotient
//     correctly: it is the float64 nearest the decimal, which is what
//     strconv.ParseFloat returns, sign of zero included. Every other
//     literal goes to strconv. TestNumberFastPathsMatchStrconv and
//     FuzzNumberFastPaths pin the fast paths to strconv bit for bit.
//   - A string of plain ASCII ends in one tight loop. The event loop
//     reads such a key, with no space around its colon, and the comma
//     after a value in place, rather than through a call each.
//   - Each event clears only the fields the rules read, and tracks with
//     pid 0 and a tid below 1024, which covers every track WriteChrome
//     writes, keep their last timestamp in a table rather than a map.
//
// # Attribution categories
//
// The forensics pass partitions each measured query's latency into
// named causes, computed by critical-path analysis over the worker
// thread whose completion released the query (or, for deadline drops,
// the first worker still in flight at drop time):
//
//	service   time the critical worker and ranker actually ran
//	queue     runnable time spent waiting behind primary/OS threads
//	harvest   runnable time spent waiting behind harvested (batch)
//	          threads occupying eligible cores
//	evict     runnable time spent while a delayed batch eviction was
//	          still pending on the machine
//	throttle  time parked by freezes or an empty affinity mask
//	disk      time gated on an SSD cache-miss read before the worker
//	          could start
//	spread    the deliberate wake-up stagger between a query's arrival
//	          and the critical worker's planned start
//	other     the unattributed residual (zero when the critical path
//	          is fully covered)
//
// The per-cell blame table (CellForensics) reports this decomposition
// for the P50/P90/P99/P99.9 queries, selected deterministically by
// sorting records on (latency, id). It rides inside each cell's
// result, so shard and dispatch merges reassemble forensics.csv
// byte-identically with no extra plumbing.
//
// # Loading a trace in Perfetto
//
// `perfiso-repro run -simtrace ...` writes one Chrome trace-event
// JSON file per executed cell under <results>/<scale>/simtrace/.
// Open https://ui.perfetto.dev and drag the file in, or load it via
// chrome://tracing. Core tracks show execution slices; queries appear
// as async spans; controller decisions are instant markers. The same
// files validate with `perfiso-repro tracecheck <dir>`.
package simtrace
