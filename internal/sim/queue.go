package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// queue is the engine's event queue: a monotone radix heap (Ahuja,
// Mehlhorn, Orlin and Tarjan, J. ACM 1990) over pointer-free
// (at, seq, slot) entries, popped in (at, seq) order. It relies on the
// engine never scheduling before its clock, so entries leave in
// nondecreasing time.
//
// The queue keeps a base time that never exceeds the engine clock.
// Bucket 0 holds the entries at the base, in seq order; bucket k ≥ 1
// holds, unordered, the entries whose time first differs from the base
// at bit k-1 (bits.Len64(at ^ base) == k), so every entry of bucket k
// precedes every entry of bucket k+1. Times are nonnegative, so 64
// buckets cover them, and one mask bit per bucket finds the lowest
// nonempty one. A push is an append. A pop that finds bucket 0 empty
// moves the base to the lowest bucket's minimum and spreads that bucket
// over the buckets below it; an entry only ever moves down, so a pop
// costs amortized O(log of the time span). Buckets keep their capacity,
// so steady-state pushes and pops never allocate.
//
// The base must never pass the clock, or an event scheduled between the
// clock and the base could not be queued. Hence three rules, each
// covered by an engine test:
//   - min (the peek next uses) does not move the base: a lane front may
//     still win and schedule below the queue's minimum;
//   - remove takes out a cancelled entry that Run discards past its
//     until without moving the base, since the clock stops at until;
//   - an empty queue takes the engine clock, not the pushed time, as its
//     base on the next push, since a later push may be earlier.
//
// Under these rules a push below the base is a bug, and panics.
type queue struct {
	base    Time
	buckets [64][]event
	head0   int    // index of bucket 0's first entry
	mask    uint64 // bit k is set when bucket k is nonempty
	n       int
	// minB and minI locate the minimum that min found above bucket 0,
	// until the next push, pop or remove; minB is 0 when none is
	// known.
	minB, minI int
}

// Len reports the number of queued entries.
func (q *queue) Len() int { return q.n }

// push adds ev. now is the engine clock, which an empty queue takes as
// its base.
func (q *queue) push(ev event, now Time) {
	if q.n == 0 {
		q.base = now
	}
	if ev.at < q.base {
		panic(fmt.Sprintf("sim: event queue push at %v below its base %v", ev.at, q.base))
	}
	q.n++
	q.minB = 0
	k := bits.Len64(uint64(ev.at ^ q.base))
	q.mask |= 1 << k
	b := append(q.buckets[k], ev)
	q.buckets[k] = b
	if k == 0 {
		// Keep bucket 0 in seq order: an Agenda's reserved seq can be
		// smaller than those already queued at the base.
		i := len(b) - 1
		for ; i > q.head0 && b[i-1].seq > ev.seq; i-- {
			b[i] = b[i-1]
		}
		b[i] = ev
	}
}

// min returns the least entry without moving the base. It panics on an
// empty queue.
func (q *queue) min() event {
	if q.mask&1 != 0 {
		return q.buckets[0][q.head0]
	}
	if q.minB == 0 {
		k := bits.TrailingZeros64(q.mask) // 64, out of range, when empty
		b := q.buckets[k]
		m := 0
		for i := 1; i < len(b); i++ {
			if b[i].Less(b[m]) {
				m = i
			}
		}
		q.minB, q.minI = k, m
	}
	return q.buckets[q.minB][q.minI]
}

// pop removes and returns the least entry, moving the base to its time.
// The caller's clock must follow to that time unless the pop empties
// the queue. It panics on an empty queue.
func (q *queue) pop() event {
	if q.mask&1 == 0 {
		q.advance()
	}
	b := q.buckets[0]
	ev := b[q.head0]
	q.head0++
	if q.head0 == len(b) {
		q.buckets[0] = b[:0]
		q.head0 = 0
		q.mask &^= 1
	}
	q.n--
	return ev
}

// advance moves the base to the least entry while bucket 0 is empty,
// and spreads that entry's bucket over the buckets below it: every
// entry there shares the base's bits above the one they differ at, so
// each lands lower, and those at the new base fill bucket 0.
func (q *queue) advance() {
	q.min()
	k := q.minB
	q.minB = 0
	b := q.buckets[k]
	q.base = b[q.minI].at
	q.buckets[k] = b[:0]
	q.mask &^= 1 << k
	inOrder := true
	for _, ev := range b {
		j := bits.Len64(uint64(ev.at ^ q.base))
		if j == 0 {
			if b0 := q.buckets[0]; len(b0) > 0 && b0[len(b0)-1].seq > ev.seq {
				inOrder = false
			}
		}
		q.buckets[j] = append(q.buckets[j], ev)
		q.mask |= 1 << j
	}
	if !inOrder {
		// A remove's swap or an Agenda's reserved seqs can leave
		// bucket k out of seq order.
		slices.SortFunc(q.buckets[0], func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
	}
}

// remove takes the least entry out of the queue without moving the
// base, for a discard the clock does not follow. It panics on an empty
// queue.
func (q *queue) remove() {
	if q.mask&1 != 0 {
		q.pop()
		return
	}
	q.min()
	k, i := q.minB, q.minI
	q.minB = 0
	b := q.buckets[k]
	last := len(b) - 1
	b[i] = b[last]
	q.buckets[k] = b[:last]
	if last == 0 {
		q.mask &^= 1 << k
	}
	q.n--
}
