// Package indexserve models the paper's primary tenant: the Bing web
// index serving node (§2.1, §5.3). It reproduces the published workload
// signature rather than any search internals:
//
//   - each query spawns a burst of parallel matcher worker threads —
//     up to 15 become ready within 5 µs;
//   - standalone response times are milliseconds (P50 ≈ 4 ms,
//     P99 ≈ 12 ms), identical at 2,000 and 4,000 QPS;
//   - queries that exceed their deadline return no useful result and
//     count as dropped;
//   - when a query falls behind, the service compensates by spawning
//     extra speculative workers (target-driven parallelism), which
//     raises primary CPU under interference — the effect visible in
//     Fig. 4b;
//   - index reads hit a striped SSD volume on cache misses, and query
//     logging trickles onto the shared HDD volume.
//
// # Query records
//
// A query's state lives in a record that each Server pools, so the
// steady-state query path allocates nothing. A record is made the first
// time the pool is empty, and binds its callbacks then: one per matcher
// slot, plus one each for the deadline, the compensation checkpoint and
// rank completion. A matcher slot's callback steps through the slot's
// phases — the wake event, then an SSD index read on a cache miss, then
// the running matcher, whose thread's OnDone is the same callback.
// Slots are made lazily, up to the widest burst the record has served,
// and reused after; a slot takes its SSD index read from the server's
// pool on each miss. The slices holding the slots and the threads are
// made with their final capacity with the record (Config.WorkersMax
// slots; matchers, rank and speculative workers), so they never regrow.
//
// A record serves one query at a time:
//
//  1. Submit takes it from the pool, draws the burst and schedules k
//     wake events, the deadline and the checkpoint.
//  2. finish — at rank completion or at the deadline — records the
//     outcome and cancels the query's threads and both timers, so none
//     of their callbacks can fire later.
//  3. The record goes back to the pool once the query is done and its
//     refs count is zero, and hands every thread it spawned (matchers,
//     rank, speculative workers) back to the machine with
//     cpumodel.Machine.Release.
//
// refs counts the callbacks finish cannot revoke: wake events that
// have not fired and SSD reads in flight. A deadline drop can leave a
// read queued on a slow SSD; until it completes the record stays out
// of the pool, since its completion would otherwise start a matcher for
// whichever query held the record next. HDD log writes and NIC reply
// packets are pooled the same way and rejoin their pools when the
// device finishes with them.
//
// Pooling changes no schedule: the same engine calls happen in the same
// order, so every result is bit-identical to building every query
// afresh.
package indexserve
