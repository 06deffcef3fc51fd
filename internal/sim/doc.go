// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event heap, and seeded random-number utilities.
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
//   - Events live in a flat 4-ary min-heap (Heap[event]) over a plain
//     slice. Entries are pointer-free 24-byte values — (at, seq, slot) —
//     so pushes never allocate, the GC never scans the queue, and
//     sift-up/down move a hole instead of swapping. The 4-ary shape
//     halves a binary heap's depth and keeps a node's children within
//     two cache lines.
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
//     (at, seq) with no sifting. Step and Run take the least (at, seq)
//     among the heap top and the lane fronts, cancelled entries
//     included, so the heap and lanes behave exactly as one heap
//     holding every entry: execution order, cancelled-entry discards
//     and obs pushed/popped counts are unchanged, which the
//     differential and fuzz tests check against the container/heap
//     reference and against the same programs run through AfterTimer.
//     A colocated cell's heap now averages about 50 entries, none of
//     them cancelled. This is libevent's "common timeouts" idea under
//     the engine's (at, seq) contract.
//
//   - Agenda streams a pre-planned batch (a query trace) by reserving
//     its seq range up front and feeding events in one at a time as
//     predecessors fire: execution order is provably identical to
//     scheduling the whole batch eagerly, but the heap holds tens of
//     events instead of hundreds of thousands.
//
// The RNG is splitmix64 with per-component Split streams; composite
// generators batch their raw draws and settle accounting once per call,
// so draw sequences are identical whether accounting is off, on, or
// toggled mid-run.
package sim
