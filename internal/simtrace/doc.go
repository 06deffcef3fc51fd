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
// Recording formats nothing. An event carries at most MaxArgs typed
// args built by Int, String or Bool, and the tracer stores it as a
// record of 24 bytes that holds no pointers: the int64 time, an int32
// duration (or the async span's ID), two int32 arg values, an int16
// track and a 16-bit shape index. The shape is what the events of one
// call site share: the kind, the name, the category, the arg keys and
// the arg types, with each string as its index in the tracer's string
// table. A string arg's value is its string index. A value that does
// not fit its narrow field (a slice over 2.1 s, an ID or Int arg beyond
// int32, a track beyond int16) sends all of the event's values, whole,
// to a wide table: the record sets the top bit of its shape field, and
// its duration field holds the entry's index. Neither table holds
// pointers either, so the GC never scans the records, and
// TestRecordIsPointerFree pins both properties. Records go into
// fixed-size chunks, so a capture never copies earlier events as it
// grows. Events rebuilds the public Event from a record, its shape and
// its wide entry, if any.
//
// Shapes and strings get indices in order of first use, so the indices
// are as deterministic as the events. The string table JSON-escapes
// each distinct string once, when the string is first interned, and
// WriteChrome appends the escaped bytes. A capture may hold 65535
// distinct non-empty strings and 32768 distinct shapes; one more
// panics. Recording finds an event's shape with one probe of a small
// cache keyed on the addresses of the name, category and arg key
// strings, and reads no string bytes: the slots keep their strings
// alive, so a slot whose strings have the same data pointers and
// lengths holds the same strings. Call sites pass constants and
// long-lived process names, so after the first few events nearly every
// lookup hits. A miss interns the strings and looks the shape up by
// content, and a string arg's value is looked up in the string table
// by content; no call site in the simulator passes one.
//
// With storage warm, recording allocates nothing, and every method on
// a nil tracer allocates nothing; TestRecordingDoesNotAllocate pins
// both.
//
// Formatting happens once, in WriteChrome. It orders sequence numbers
// rather than the events themselves, and renders each record into one
// reused byte buffer with strconv.Append*. Every arg value is written
// as a JSON string ("tid":"12", "dropped":"true"), whatever its type.
// A golden file (testdata/cell.chrome.json) pins the bytes, and CI
// compares the sha256 of each of the registry's traced cells with
// testdata/registry.sha256.
//
// The order is (TS, Seq), and the sort takes one uint64 key per event,
// 8 bytes, sorted in place. The key is the time less the capture's
// earliest, shifted left over the sequence number, so every key is
// distinct and ascending keys are exactly (TS, Seq) order; the time is
// read with its sign bit flipped, which makes unsigned order signed
// time order, so a negative time (the golden trace has one at -5)
// sorts first. The keys are sorted by an MSD radix sort: count the keys
// per value of the top digit, swap each into its digit's bucket, then
// sort each bucket by the next digit down, with an insertion sort for
// buckets of up to 32 keys. Only the bits that span the capture's time
// range and sequence numbers take a digit. When those do not fit 64
// bits, as with times at both ends of the int64 range, the keys are
// the bare sequence numbers, ordered by comparing their records'
// (TS, Seq). The quotes around each string are part of the constant
// runs between them, and args are read in place rather than copied.
//
// ValidateChrome has two readers, and accepts exactly the inputs that
// a json.Unmarshal of the whole file into a slice of events, plus the
// per-event rules, would accept. The Unmarshal-based validator lives
// on in validate_ref_test.go as the oracle of FuzzValidateChrome,
// which requires ValidateChrome to agree with it on every input.
//
// The first reader takes one pass over a file in the layout
// WriteChrome writes, applying the rules to each element as it goes by
// without building the event list: {"traceEvents":[, then elements,
// each after an optional newline and separated by commas, then an
// optional newline, ]} and trailing white space. Each element is one
// object with no white space inside, whose keys are lower-case, come
// from name, cat, ph, pid, tid, ts, dur, id, s and args, and appear at
// most once each; whose pid and tid are unsigned integers of at most
// 18 digits with no leading zero; whose ts and dur are unsigned
// decimals of at most 15 digits with no exponent; whose id and s are
// strings; and whose args is a non-empty object of strings. In that
// layout none of encoding/json's quirks comes into play: no key folds
// or repeats, and no value is null. A plain ASCII string is its own
// value, read in place. Any other string (an escape, a non-ASCII rune)
// is found by its closing quote and handed to encoding/json alone:
// decoded for name, cat and ph, only checked for id, s and args; one
// that encoding/json rejects, such as a string holding a raw control
// byte, is outside the layout. So every file WriteChrome writes,
// escaped strings included, takes this reader
// (TestValidateChromeReadsExportsCompact).
//
// At the first byte outside that layout, the second reader decodes the
// whole file with one json.Unmarshal into a slice of events and runs
// the same rules over it. That is the cost of any other layout:
// decoding a json.Indent copy of an export takes over twenty times as
// long as the one pass over the export itself, and allocates about 530
// bytes per event. An indented copy gets the same verdicts and rule
// messages as the compact original (TestValidateChromeLayoutsAgree).
//
// The one pass is exact in these ways:
//
//   - A head, the bytes from an element's '{' through its "tid" key,
//     repeats verbatim across one call site's events: a colocated
//     cell's export of 296,409 events has 11. The reader memoizes up
//     to 16 heads per file, as slices of the input, each with the
//     fields and the key set that reading it left, and keeps the most
//     often hit first. An element that starts with a memoized head's
//     bytes takes those fields and that key set, which is what reading
//     the same bytes again would leave, and is read on from its tid
//     value. The key set still sends a repeated key to encoding/json.
//   - A key is one of ten literals, quotes and colon included, so it is
//     told by its first letter and one comparison with that literal
//     rather than scanned and looked up.
//   - An integer of at most 18 digits fits an int64 exactly. A decimal
//     of at most 15 digits with no exponent is m/10^k with m < 10^15 <
//     2^53 and k <= 14, so m and 10^k are exact float64s, and IEEE 754
//     division rounds their quotient correctly: it is the float64
//     nearest the decimal, which is what strconv.ParseFloat returns.
//     TestNumberFastPathsMatchStrconv and FuzzNumberFastPaths pin the
//     two number readers to strconv bit for bit.
//   - The reader keeps going past the first rule violation, so that a
//     file that leaves the layout later still goes to encoding/json,
//     whose verdict on its syntax comes first.
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
// for the P50/P90/P99/P99.9 queries, selected deterministically in
// (latency, id) order. Ids are unique, so that order is total, and an
// exact radix selection over the latencies finds the records a full
// sort would put at those ranks in linear time. The table rides inside
// each cell's result, so shard merges reassemble
// forensics.csv byte-identically with no extra plumbing.
//
// # Record storage
//
// A cell keeps a record of each measured query until it ends, so a
// RecordLog does not keep the 88-byte QueryRecord. It covers a cell's
// query IDs, [0, n), and holds a latency column of one uint32 per ID:
// the record's latency in nanoseconds, or 2^32-1 for an ID with no
// record (one finished during warmup, say). Column order is ID order,
// so the ID costs nothing. Most records say only that the whole
// latency was service (Service equal to Latency, every other cause
// zero, not dropped): 84-85% of the measured queries in a colocated or
// a standalone cell at 4,000 QPS. Such a record keeps nothing else.
// Every other record also appends an entry to a side log: the ID
// shifted left by one over the dropped flag, a byte with one bit per
// nonzero cause, and those causes as uint32 nanoseconds, 13 bytes for
// the usual two: in a colocated cell of 100k queries at 4,000 QPS
// (seed 1), 12,440 of its 12,522 side entries have exactly two causes.
// The side log grows in 8 KiB byte chunks and never by append: Go
// grows a large slice by about 1.25x a step, so an appended log would
// allocate about five times its final size. Neither the column nor a
// chunk holds a pointer, so the GC never scans them.
//
// The blame table is an exact radix selection over the column in
// digits of 11, 11 and 10 bits. Each counting pass serves all four
// quantiles: one counts the top digit of every latency, one the middle
// digit of those in a quantile's top bucket, one the low digit of those
// that share a quantile's top two digits. A last walk in column order
// finds each quantile's record among those with the latency found, so
// ties fall to the lower ID. Only the four selected records are read
// whole, in one pass over the side log.
//
// Values are bounded: a cause may be up to 2^32-1 ns, about 4.29 s, a
// latency up to 2^32-2 ns, since 2^32-1 marks an ID with no record,
// and every value a cell records is bounded by its 350 ms deadline.
// Append panics rather than wrap on a value outside those bounds, and
// on an ID outside [0, n) or already appended, naming the field or
// the ID. A side-log entry keeps the ID in 31 bits, so n is at most
// 2^31. A single-machine cell makes one log over its query IDs
// [0, queries) at the warmup cut, so the log never grows: a 500k-query
// cell, 400k of them measured, keeps about 2.8 MB of column and side
// log. TestCellMemoryPerQuery (internal/experiments) bounds what a
// cell allocates per query.
//
// # Loading a trace in Perfetto
//
// `perfiso-repro run -simtrace ...` writes one Chrome trace-event
// JSON file per executed cell under <results>/<scale>/simtrace/, each
// as its cell ends, so the run holds at most one capture per worker.
// Open https://ui.perfetto.dev and drag the file in, or load it via
// chrome://tracing. Core tracks show execution slices; queries appear
// as async spans; controller decisions are instant markers. The same
// files validate with `perfiso-repro tracecheck <dir>`.
package simtrace
