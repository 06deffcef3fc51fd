package sim

// FIFO is a first-in first-out queue over a ring buffer. Its storage
// has a power-of-two length that doubles when a push finds it full and
// never shrinks, so a queue held at a steady depth stops allocating
// once it has grown to that depth: a pop only advances the front,
// where reslicing a slice past its first element slides it off its
// array and makes the next appends reallocate. Pop zeroes the slot it
// vacates, so the queue keeps nothing it no longer holds reachable for
// the GC. The zero value is an empty queue; a FIFO must not be copied
// once used.
//
// The engine's fixed-delay lanes and the models' request, packet, task
// and sample queues all use it.
type FIFO[T any] struct {
	buf []T // ring storage; its length is zero or a power of two
	// head indexes the oldest element; n elements follow it, wrapping.
	head, n int
}

// minFIFO is the storage a FIFO takes on its first push. It is small
// because most queues hold a few elements at a time; a lane grows to
// hundreds in a few doublings.
const minFIFO = 4

// Len reports how many elements the queue holds.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the back of the queue.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest element without removing it. It panics on
// an empty queue.
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sim: Front of an empty FIFO")
	}
	return q.buf[q.head]
}

// Pop removes and returns the oldest element, zeroing its slot. It
// panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns the i-th oldest element: At(0) is the front and
// At(Len()-1) the back. It panics unless 0 <= i < Len().
func (q *FIFO[T]) At(i int) T {
	if uint(i) >= uint(q.n) {
		panic("sim: FIFO index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// grow doubles the full ring, unwrapping it so the front is at index 0.
func (q *FIFO[T]) grow() {
	buf := make([]T, max(2*len(q.buf), minFIFO))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
