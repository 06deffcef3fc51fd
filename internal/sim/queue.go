package sim

import (
	"fmt"
	"math/bits"
)

// The queue's two timing wheels have wheelSlots slots each: the coarse
// wheel's are 1<<slotShift ns wide, so it spans about 4.19 ms from the
// cursor, and the fine wheel's are 1 ns wide, so it spans 4,096 ns.
const (
	slotShift  = 10
	wheelSlots = 1 << 12
	wheelMask  = wheelSlots - 1
	// slotWalk is the most entries of a coarse slot list a push walks
	// past to find its place before it goes to the heap.
	slotWalk = 8
)

// queue is the engine's event queue over pointer-free (at, seq, slot)
// entries, popped in (at, seq) order: a hashed timing wheel (Varghese
// and Lauck, SOSP 1987) for the entries due within about 4 ms of the
// cursor, a fine wheel of 1 ns slots for out-of-order entries due
// within 4,096 ns, and a binary min-heap for the rest. It relies on the
// engine never scheduling before its clock, so entries leave in
// nondecreasing time.
//
// The cursor is a time that never exceeds the engine clock or a queued
// entry. A wheel holds only entries whose slot number (at>>shift) lies
// less than wheelSlots past the cursor's, so an entry's slot index (its
// slot number mod wheelSlots) names one slot number, and the first
// occupied index at or after the cursor's, cyclically, holds the
// wheel's least entries. The cursor only moves forward, so a wheel
// entry stays within its wheel's span until it leaves; a heap entry
// that comes within a span stays in the heap, and the queue's minimum
// is the least of the three.
//
// Each slot list is kept in (at, seq) order with a tail pointer, so an
// entry that does not precede its slot's tail appends in O(1): that is
// nearly every push (94% of them in the benchmark's cluster-harvest
// cells), same-instant poll groups and wake bursts included however
// large they grow. A push that precedes its coarse slot's tail tries,
// in turn:
//   - the fine wheel, if it is due within 4,096 ns of the cursor: a fine
//     slot holds one instant, and seq only grows, so it appends there
//     unless an Agenda's reserved seq puts it first;
//   - a walk of at most slotWalk entries from its coarse slot's head;
//   - the heap.
//
// So a burst of pushes into one coarse slot in no time order (what
// TestEngineBurstGrowthAndReuse schedules) costs O(1) each, where
// sorted insertion alone would be quadratic.
//
// An occupancy bitmap, 64 words under one summary word, finds a wheel's
// first occupied slot in O(1), and each wheel caches its least slot
// number and that slot's first node until a pop or remove empties the
// slot (a push lower replaces them). The queue caches its minimum, and
// where it lies, from min to the next pop or remove, or to a push below
// it. List nodes live in one pool and recycle through a free list, so
// steady-state pushes and pops never allocate. Each wheel's slot table
// is allocated by the first push into it, not by NewEngine.
//
// The cursor must never pass the clock, or an event scheduled between
// the clock and the cursor could not be queued. Hence three rules,
// each covered by an engine test:
//   - min (the peek next uses) does not move the cursor: a lane front
//     may still win and schedule below the queue's minimum;
//   - remove takes out a cancelled entry that Run discards past its
//     until without moving the cursor, since the clock stops at until;
//   - an empty queue takes the engine clock, not the pushed time, as its
//     cursor on the next push, since a later push may be earlier.
//
// Under these rules a push below the cursor is a bug, and panics.
type queue struct {
	now          Time // the cursor
	coarse, fine wheel
	pool         []node // list nodes; index 0 is unused
	free         int32  // first node of the free list, chained through next
	far          []event
	n            int
	peak         int // the largest n has been
	// top and topW cache least's result until a pop or remove, or a
	// push below top; topOK says whether they are current.
	top   event
	topW  *wheel
	topOK bool
}

// wheel is one timing wheel of wheelSlots slots of 1<<shift ns.
type wheel struct {
	shift uint
	sum   uint64 // bit j is set when s.occ[j] is nonzero
	min   int64  // the least occupied slot number, or -1 when unknown
	head  int32  // the first node of slot min's list, while min is known
	s     *slots // nil until the first push into the wheel
}

// slots is a wheel's slot table.
type slots struct {
	occ [wheelSlots / 64]uint64 // bit i&63 of occ[i>>6] is set when slot i is nonempty
	// tails[i] is the last node of slot i's list, 0 when it is empty.
	// The list is circular: the tail's next is the head.
	tails [wheelSlots]int32
}

// node is one wheel entry, linked to the next entry of its slot list
// or, when free, of the free list.
type node struct {
	at   Time
	seq  uint64
	slot int32
	next int32
}

func (k *node) event() event { return event{at: k.at, seq: k.seq, slot: k.slot} }

// Len reports the number of queued entries.
func (q *queue) Len() int { return q.n }

// push adds ev. now is the engine clock, which an empty queue takes as
// its cursor.
func (q *queue) push(ev event, now Time) {
	if q.n == 0 {
		q.now = now
	}
	if ev.at < q.now {
		panic(fmt.Sprintf("sim: event queue push at %v below its cursor %v", ev.at, q.now))
	}
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
	if q.topOK && ev.Less(q.top) {
		q.topOK = false
	}
	if q.add(&q.coarse, slotShift, ev, 0) {
		return
	}
	if ev.at-q.now < wheelSlots && q.add(&q.fine, 0, ev, 0) {
		return
	}
	if q.add(&q.coarse, slotShift, ev, slotWalk) {
		return
	}
	q.pushFar(ev)
}

// add links ev into its slot list in w, a wheel of 1<<shift ns slots,
// in (at, seq) order, and reports true, or reports false when the slot
// lies past w's span or ev would follow more than walk entries that do
// not precede it.
func (q *queue) add(w *wheel, shift uint, ev event, walk int) bool {
	s := int64(ev.at >> shift)
	if s-int64(q.now>>shift) >= wheelSlots {
		return false
	}
	if w.s == nil {
		w.shift, w.s = shift, new(slots)
		if q.pool == nil {
			q.pool = make([]node, 1, 64)
		}
	}
	i := int(s & wheelMask)
	t := w.s.tails[i]
	if t == 0 {
		k := q.node(ev)
		q.pool[k].next = k
		w.s.tails[i] = k
		w.s.occ[i>>6] |= 1 << (i & 63)
		if w.sum == 0 || s < w.min {
			w.min, w.head = s, k
		}
		w.sum |= 1 << (i >> 6)
		return true
	}
	// Link the new node after prev: the tail, unless ev precedes it;
	// then the last of the entries from the head on, at most walk of
	// them, that ev does not precede (the tail itself when ev precedes
	// the head, since the list is circular).
	prev, last := t, !ev.Less(q.pool[t].event())
	if !last {
		for j := 0; !ev.Less(q.pool[q.pool[prev].next].event()); j++ {
			if j == walk {
				return false
			}
			prev = q.pool[prev].next
		}
	}
	k := q.node(ev)
	q.pool[k].next = q.pool[prev].next
	q.pool[prev].next = k
	if last {
		w.s.tails[i] = k
	} else if prev == t && s == w.min {
		w.head = k
	}
	return true
}

// node returns a free pool node holding ev.
func (q *queue) node(ev event) int32 {
	k := q.free
	if k != 0 {
		q.free = q.pool[k].next
	} else {
		k = int32(len(q.pool))
		q.pool = append(q.pool, node{})
	}
	q.pool[k] = node{at: ev.at, seq: ev.seq, slot: ev.slot}
	return k
}

// front returns the index of w's least occupied slot, finding it, and
// its first node, when they are not known. w must not be empty.
func (q *queue) front(w *wheel) int {
	if w.min < 0 {
		c := int64(q.now >> w.shift)
		ci := int(c & wheelMask)
		i := w.first(ci)
		w.min = c + int64((i-ci)&wheelMask)
		w.head = q.pool[w.s.tails[i]].next
	}
	return int(w.min & wheelMask)
}

// first returns the first occupied slot index at or after i,
// cyclically. w must not be empty.
func (w *wheel) first(i int) int {
	j := i >> 6
	if word := w.s.occ[j] >> (i & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	// The words after j, then from word 0 round to j's low bits.
	rest := w.sum &^ (2<<j - 1)
	if rest == 0 {
		rest = w.sum
	}
	j = bits.TrailingZeros64(rest)
	return j<<6 + bits.TrailingZeros64(w.s.occ[j])
}

// least returns the least entry and the wheel holding it, nil for the
// heap. It panics on an empty queue.
func (q *queue) least() (*wheel, event) {
	if !q.topOK {
		q.topW, q.top = q.scan()
		q.topOK = true
	}
	return q.topW, q.top
}

// scan finds least's result.
func (q *queue) scan() (best *wheel, ev event) {
	if w := &q.coarse; w.sum != 0 {
		q.front(w)
		best, ev = w, q.pool[w.head].event()
	}
	if w := &q.fine; w.sum != 0 {
		q.front(w)
		if e := q.pool[w.head].event(); best == nil || e.Less(ev) {
			best, ev = w, e
		}
	}
	if best == nil || len(q.far) > 0 && q.far[0].Less(ev) {
		return nil, q.far[0]
	}
	return best, ev
}

// min returns the least entry without moving the cursor. It panics on
// an empty queue.
func (q *queue) min() event {
	_, ev := q.least()
	return ev
}

// pop removes and returns the least entry, moving the cursor to its
// time. The caller's clock must follow to that time unless the pop
// empties the queue. It panics on an empty queue.
func (q *queue) pop() event {
	ev := q.take()
	q.now = ev.at
	return ev
}

// remove takes the least entry out of the queue without moving the
// cursor, for a discard the clock does not follow. It panics on an
// empty queue.
func (q *queue) remove() { q.take() }

// take removes and returns the least entry.
func (q *queue) take() event {
	w, ev := q.least()
	q.topOK = false
	q.n--
	if w == nil {
		q.popFar()
		return ev
	}
	i := q.front(w)
	t, k := w.s.tails[i], w.head
	if k == t {
		w.s.tails[i] = 0
		w.s.occ[i>>6] &^= 1 << (i & 63)
		if w.s.occ[i>>6] == 0 {
			w.sum &^= 1 << (i >> 6)
		}
		w.min = -1
	} else {
		w.head = q.pool[k].next
		q.pool[t].next = w.head
	}
	q.pool[k].next = q.free
	q.free = k
	return ev
}

// pushFar adds ev to the heap.
func (q *queue) pushFar(ev event) {
	h := append(q.far, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.Less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	q.far = h
}

// popFar removes the heap's least entry.
func (q *queue) popFar() {
	h := q.far
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].Less(h[c]) {
			c++
		}
		if !h[c].Less(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	q.far = h
}
