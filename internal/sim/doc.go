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
//   - Events live in a hashed timing wheel (queue.go; Varghese and
//     Lauck, SOSP 1987). Entries are pointer-free 24-byte values — (at,
//     seq, slot) — so pushes never allocate once the node pool has
//     grown, and the GC never scans the queue. Nearly every event is due
//     a few µs to a few ms ahead: in a colocated cell 34% are matcher
//     wakes at most 5 µs out, 40% slice completions and 10% 100 µs
//     polls. So 4,096 slots of 1,024 ns, about 4.19 ms from the cursor,
//     hold almost all of them, and a plain binary min-heap holds the
//     rest. A slot is a circular list in (at, seq) order through one
//     free-listed node pool, reached by its tail, so an entry that does
//     not precede the tail appends in O(1): 94% of the pushes in the
//     benchmark's cluster-harvest cells, same-instant poll groups (12
//     machines there, 44 at paper scale) and wake bursts included. An
//     out-of-order push due within 4,096 ns goes to a fine wheel of
//     1 ns slots, where each slot is one instant and seq only grows, so
//     it appends there; a farther one walks at most 8 entries of its
//     slot, and past that, or past the span, goes to the heap. A
//     one-slot burst in no time order (TestEngineBurstGrowthAndReuse)
//     therefore costs O(1) a push, where sorted insertion alone is
//     quadratic. An occupancy bitmap, 64 words under a summary word,
//     finds each wheel's first slot from the cursor in O(1); the
//     queue's minimum is the least of the two wheels' and the heap's,
//     and is cached from a peek to the pop that follows it. The (at,
//     seq) order is exactly the one a binary heap gives.
//
//     The cursor must never pass the clock, or an event scheduled
//     between them could not be queued; a push below the cursor panics
//     as a bug. Three rules keep it there. A peek does not move the
//     cursor: next compares the queue's minimum with the front lane's
//     front, and a lane event that wins may schedule below that minimum.
//     A cancelled entry that Run discards past its until is taken out
//     without moving the cursor, since the clock stops at until. And an
//     empty queue takes the engine clock as its cursor on its next push,
//     not the pushed time, since a later push (a model's start-up, say)
//     may be earlier.
//
//     The wheel replaced a monotone radix heap (Ahuja, Mehlhorn, Orlin
//     and Tarjan, J. ACM 1990), which had replaced a flat 4-ary heap.
//     The radix heap's per-bucket arrays kept 8,985 entries of capacity
//     for a peak of 716 live ones in cluster-harvest, a quarter of that
//     workload's alloc_mb, and its advance, min and push took about 30%
//     of a traced cluster-harvest profile. The wheel's node pool grows
//     only to the live entries, and cluster-harvest's alloc_mb fell from
//     9.42 to 7.30 MB (10 interleaved pairs). BenchmarkEventHeap prices one
//     step of the engine's traffic (pop the minimum, push an entry an
//     exponential delay later) at the depths cells run at, about 50 on
//     one machine and 320 in a 12-machine cluster: on a 2-vCPU Xeon,
//     medians of 8 interleaved runs, 93 ns against 120 for the radix
//     heap at depth 50 and 93 against 127 at depth 320, the exponential
//     draw included. At 10k, a stress point whose slots near the cursor
//     hold about 10 entries each, it reads 159 against 148: the walks
//     through scattered nodes cost more than the radix heap's appends
//     to contiguous bucket arrays.
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
//     shared lane per distinct d. The ring is FIFO (fifo.go), the one
//     growable ring queue the models' disk, NIC, harvest and DWRR
//     queues use too: power-of-two storage that doubles and never
//     shrinks, so a queue held at a steady depth stops allocating. Because the clock never goes back and
//     seq only grows, appending (now+d, seq) keeps each lane sorted by
//     (at, seq) with no sorting. Step and Run take the lesser (at, seq)
//     of the queue's minimum and the front lane's front: the engine
//     keeps the lane whose front is least, and sweeps the few lanes
//     for it again only when that lane's front changes, not on every
//     event. A colocated cell's queue averages about 50 entries, none
//     of them cancelled. This is libevent's "common timeouts" idea
//     under the engine's (at, seq) contract.
//
//     A lane discards a cancelled entry as soon as it reaches the
//     lane's front: in Cancel, when the entry is the front, and after
//     every pop, so no lane ever shows a cancelled front, and a lane
//     holds only the entries from its oldest live timer on. A deadline
//     cancelled when its query finishes therefore leaves the lane
//     within milliseconds rather than waiting out its 350 ms. In the
//     benchmark's cluster-harvest workload (six 6×2 cells, seed 501)
//     the shared deadline lane peaked at 4,818 entries, nearly all
//     cancelled and each holding an engine slot; it now peaks at 517,
//     and colocated's at 165 instead of 1,542. The 300 ms quantum lane
//     barely shrinks (880 to 874 entries): a thread that runs out its
//     whole quantum keeps a live entry at the front while the ones
//     behind it are cancelled. The trimmed entries precede the lane's
//     live front, which precedes every later event of the lane, so the
//     engine would only have discarded them on its way there.
//     Execution order, every (at, seq) tie-break and which cancelled
//     queue entries are discarded when are exactly what one queue
//     holding every entry gives; the differential and fuzz tests check
//     this against the container/heap reference and against the same
//     programs run through AfterTimer. Only the moment a cancelled lane
//     entry counts as popped (Counts, and with it the run's
//     sim_events_popped) moves: it counts when it is trimmed, which can
//     be before its time. TestLaneObsCountsMatchHeap and FuzzEventHeap
//     compare the two runs' counts after every op, allowing exactly the
//     trimmed entries the test itself finds still queued in the
//     AfterTimer run.
//
//     The lanes stay beside the event queue: sending every lane timer
//     through the radix heap the wheel replaced (no lanes at all)
//     measured, over 4
//     interleaved pairs per workload, 1.3% faster on colocated (2 of 4
//     pairs) but 3.8% slower on cluster-harvest and 5.1% slower on
//     standalone, with 2.2–4.7% more allocation.
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
