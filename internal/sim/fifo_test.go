package sim

import (
	"fmt"
	"slices"
	"testing"
)

// drain pops every element of q, oldest first.
func drain[T any](q *FIFO[T]) []T {
	var out []T
	for q.Len() > 0 {
		out = append(out, q.Pop())
	}
	return out
}

// TestFIFOWrapAround pops the front of a 16-slot ring past its middle
// and pushes on until the back wraps to the start of the storage:
// elements still come out in the order they went in, and the ring does
// not grow while it has room.
func TestFIFOWrapAround(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	for i := 0; i < 8; i++ {
		if v := q.Pop(); v != i {
			t.Fatalf("pop %d = %d", i, v)
		}
	}
	for i := 10; i < 24; i++ { // 16 held; the back wraps at index 16
		q.Push(i)
	}
	if len(q.buf) != 16 || q.head != 8 {
		t.Fatalf("storage %d, head %d; want 16 and 8 (no growth)", len(q.buf), q.head)
	}
	if got, want := drain(&q), seq(8, 24); !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
}

// TestFIFOGrowsWhileWrapped fills a wrapped 16-slot ring and pushes one
// more: the storage doubles, the front moves to index 0, and the order
// holds.
func TestFIFOGrowsWhileWrapped(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 16; i++ {
		q.Push(i)
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	for i := 16; i < 21; i++ { // full again, wrapped
		q.Push(i)
	}
	if len(q.buf) != 16 || q.head != 5 {
		t.Fatalf("storage %d, head %d before growth; want 16 and 5", len(q.buf), q.head)
	}
	q.Push(21)
	if len(q.buf) != 32 || q.head != 0 {
		t.Fatalf("storage %d, head %d after growth; want 32 and 0", len(q.buf), q.head)
	}
	if got, want := drain(&q), seq(5, 22); !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	if len(q.buf) != 32 {
		t.Fatalf("storage shrank to %d", len(q.buf))
	}
}

// TestFIFOPopZeroesSlot checks that a popped slot no longer holds the
// element, so the queue keeps nothing it has handed back alive.
func TestFIFOPopZeroesSlot(t *testing.T) {
	var q FIFO[*int]
	a, b := new(int), new(int)
	q.Push(a)
	q.Push(b)
	if got := q.Pop(); got != a {
		t.Fatalf("popped %p, want %p", got, a)
	}
	if q.buf[0] != nil {
		t.Fatal("the popped slot still holds its element")
	}
	if q.buf[1] != b {
		t.Fatal("the live slot lost its element")
	}
}

// TestFIFOAtIsOldestFirst reads a wrapped queue through At: index 0 is
// the front and Len()-1 the back.
func TestFIFOAtIsOldestFirst(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 12; i++ {
		q.Push(i)
	}
	for i := 0; i < 9; i++ {
		q.Pop()
	}
	for i := 12; i < 20; i++ {
		q.Push(i)
	}
	for i := 0; i < q.Len(); i++ {
		if v := q.At(i); v != 9+i {
			t.Fatalf("At(%d) = %d, want %d", i, v, 9+i)
		}
	}
	if q.Front() != 9 {
		t.Fatalf("Front = %d, want 9", q.Front())
	}
}

// TestFIFOEmptyPanics: Front and Pop on an empty queue, and At out of
// range, panic instead of returning a stale slot.
func TestFIFOEmptyPanics(t *testing.T) {
	var q FIFO[int]
	q.Push(1)
	q.Pop()
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Front", func() { q.Front() }},
		{"Pop", func() { q.Pop() }},
		{"At(0)", func() { q.At(0) }},
		{"At(-1)", func() {
			q.Push(2)
			defer q.Pop()
			q.At(-1)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func seq(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// FuzzFIFO runs an arbitrary sequence of operations on a FIFO and on a
// plain slice model. Each byte is one op: b%4 == 3 pops (when anything
// is queued), anything else pushes the next value of a counter that
// starts at 1. After every op the queue must hold exactly the model,
// oldest first through At; the storage must be a power of two at least
// as long as the queue that never shrinks; and every slot outside the
// queue must be zero, which the counter never pushes.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 3, 0, 3, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q FIFO[int]
		var model []int
		next, size := 1, 0
		for i, b := range ops {
			if b%4 == 3 {
				if len(model) == 0 {
					continue
				}
				if v := q.Pop(); v != model[0] {
					t.Fatalf("op %d: popped %d, want %d", i, v, model[0])
				}
				model = model[1:]
			} else {
				q.Push(next)
				model = append(model, next)
				next++
			}
			if q.Len() != len(model) {
				t.Fatalf("op %d: Len %d, want %d", i, q.Len(), len(model))
			}
			for j, want := range model {
				if v := q.At(j); v != want {
					t.Fatalf("op %d: At(%d) = %d, want %d", i, j, v, want)
				}
			}
			n := len(q.buf)
			if n < size || n < q.Len() || (n > 0 && n&(n-1) != 0) {
				t.Fatalf("op %d: storage %d (was %d) for %d elements", i, n, size, q.Len())
			}
			size = n
			for j := q.Len(); j < n; j++ {
				if v := q.buf[(q.head+j)&(n-1)]; v != 0 {
					t.Fatalf("op %d: free slot %d holds %d", i, j, v)
				}
			}
		}
	})
}

// BenchmarkFIFO prices one push and one pop on a queue held at a fixed
// depth, the traffic of a throttled disk or NIC queue that never
// drains. ring is FIFO; slice is the q = q[1:] pop it replaced, whose
// appends reallocate as the live window slides off its storage
// (B/op above zero).
func BenchmarkFIFO(b *testing.B) {
	for _, depth := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("ring/depth=%d", depth), func(b *testing.B) {
			var q FIFO[*int]
			v := new(int)
			for i := 0; i < depth; i++ {
				q.Push(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(q.Pop())
			}
		})
		b.Run(fmt.Sprintf("slice/depth=%d", depth), func(b *testing.B) {
			var q []*int
			v := new(int)
			for i := 0; i < depth; i++ {
				q = append(q, v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := q[0]
				q[0] = nil
				q = q[1:]
				q = append(q, x)
			}
		})
	}
}
