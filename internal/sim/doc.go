// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, and seeded random-number utilities.
//
// All PerfIso models (CPU, disk, network, tenants, the controller itself)
// are driven by a single Engine so that every experiment is reproducible
// bit-for-bit from its seed.
//
// # Engine internals
//
// The scheduler core is built for the per-event cost a half-million-query
// replay pays millions of times over:
//
//   - Events live in a monotone radix queue (queue.go; Ahuja, Mehlhorn,
//     Orlin and Tarjan, J. ACM 1990). Entries are pointer-free 24-byte
//     values — (at, seq, slot) — so pushes never allocate once the
//     buckets have grown, and the GC never scans the queue. The engine
//     never schedules before its clock, so events leave in
//     nondecreasing time, which is what a radix heap needs: it keeps a
//     base time, bucket 0 holds the entries at the base in seq order,
//     and bucket k holds those whose time first differs from the base
//     at bit k-1. A push is an append; a pop that finds bucket 0 empty
//     moves the base to the lowest nonempty bucket's minimum and spreads
//     that bucket over the buckets below it, and a 64-bit mask finds
//     that bucket. The (at, seq) order is exactly the one a binary heap
//     gives.
//
//     The base must never pass the clock, or an event scheduled between
//     them could not be queued; a push below the base panics as a bug.
//     Three rules keep it there. A peek does not move the base: next
//     compares the queue's minimum with the lane fronts, and a lane
//     event that wins may schedule below that minimum, so the peek
//     remembers where the minimum is instead. A cancelled entry that
//     Run discards past its until is taken out without moving the base,
//     since the clock stops at until. And an empty queue takes the
//     engine clock as its base on its next push, not the pushed time,
//     since a later push (a model's start-up, say) may be earlier.
//
//     The flat 4-ary heap this replaced sifted an entry through
//     log4(depth) levels on every pop. The queue holds about 50 events
//     on average in a single-machine cell and 320–340 in a 12-machine
//     cluster cell, and there the heap was the engine's largest cost:
//     in the benchmark's traced cluster-harvest run (seed 1) its Pop
//     and up took 34% of the CPU profile, 42% of what the obs observer
//     left. BenchmarkEventHeap prices one step of the engine's traffic
//     at those depths (pop the minimum, push an entry an exponential
//     delay later): on a 2-vCPU Xeon, 115 and 127 ns for the radix
//     queue against 160 and 221 ns for the 4-ary heap, with the
//     exponential draw included.
//
//   - Ordering is the total order (at, seq): seq is a monotone counter
//     stamped at scheduling time, so events at the same instant run in
//     the order they were scheduled (FIFO). This tie-break is the
//     contract bit-identical reproduction rests on — every committed
//     artifact depends on it, and the differential and fuzz tests in
//     this package enforce it against a container/heap reference.
//
//   - Callbacks are stored out-of-band in a slot pool indexed by the
//     event's slot field; slots recycle through a free list, and a slot
//     is cleared before its callback runs so a callback that schedules
//     new events can never alias the closure it is executing.
//
//   - Cancellation (Timer, Engine.Cancel) is lazy: the slot's seq stamp
//     is invalidated and the queued entry is discarded when it surfaces,
//     without advancing the clock or counting as executed. Removing an
//     entry from a totally ordered queue never reorders the remainder,
//     so cancelling a would-have-been-no-op event is observationally
//     invisible. It does not shrink the queue, though: the entry stays
//     until its time comes. With every timer in the heap, a colocated
//     cell (IndexServe at 4,000 QPS beside a CPU bully) averaged about
//     1,780 heap entries, 1,668 of them cancelled: about 1,400 were
//     350 ms query deadlines cancelled when their ~4 ms query finished,
//     about 270 were quantum expiries cancelled at preemption, and the
//     rest spec checkpoints. Every pop sifted through that to serve
//     about 100 live events.
//
//   - Fixed-delay lanes (Delay, from Engine.NewDelay) hold those timers
//     instead. A lane is a FIFO ring of (at, seq, slot) entries that all
//     fire the same d after they were scheduled; NewDelay returns one
//     shared lane per distinct d. Because the clock never goes back and
//     seq only grows, appending (now+d, seq) keeps each lane sorted by
//     (at, seq) with no sorting. Step and Run take the least (at, seq)
//     among the queue's minimum and the lane fronts, cancelled entries
//     included, so the queue and lanes behave exactly as one queue
//     holding every entry: execution order, cancelled-entry discards
//     and the pushed/popped counts (Counts) are unchanged, which the
//     differential and fuzz tests check against the container/heap
//     reference and against the same programs run through AfterTimer.
//     A colocated cell's queue now averages about 50 entries, none of
//     them cancelled. This is libevent's "common timeouts" idea under
//     the engine's (at, seq) contract. The lanes stay beside the radix
//     queue: sending every lane timer through the queue instead (no
//     lanes at all) measured, over 4 interleaved pairs per workload,
//     1.3% faster on colocated (2 of 4 pairs) but 3.8% slower on
//     cluster-harvest and 5.1% slower on standalone, with 2.2–4.7% more
//     allocation.
//
//   - Agenda streams a pre-planned batch (a query trace) by reserving
//     its seq range up front and feeding events in one at a time as
//     predecessors fire: execution order is provably identical to
//     scheduling the whole batch eagerly, but the queue holds tens of
//     events instead of hundreds of thousands.
//
// The RNG is splitmix64 with per-component Split streams; composite
// generators batch their raw draws and settle accounting once per call,
// so draw sequences are identical whether accounting is off, on, or
// toggled mid-run.
package sim
