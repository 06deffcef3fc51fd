package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// BenchmarkEventHeap prices one push+pop cycle at a steady queue depth,
// old versus new:
//
//	old — the engine's original design: boxed *refEvent elements
//	      through container/heap's interface dispatch (one allocation
//	      per push, like the closure-carrying events it stored);
//	new — the flat 4-ary Heap[event] with pointer-free entries.
//
// CI's micro-benchmark smoke step runs both once so they keep building;
// compare them with repeated runs on one host.
func BenchmarkEventHeap(b *testing.B) {
	for _, depth := range []int{1_000, 100_000} {
		name := fmt.Sprintf("depth=%dk", depth/1000)
		b.Run("new/"+name, func(b *testing.B) {
			var h Heap[event]
			rng := NewRNG(1)
			for i := 0; i < depth; i++ {
				h.Push(event{at: Time(rng.Uint64n(1 << 30)), seq: uint64(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Push(event{at: Time(rng.Uint64n(1 << 30)), seq: uint64(depth + i)})
				h.Pop()
			}
		})
		b.Run("old/"+name, func(b *testing.B) {
			var q refQueue
			rng := NewRNG(1)
			for i := 0; i < depth; i++ {
				heap.Push(&q, &refEvent{at: Time(rng.Uint64n(1 << 30)), seq: uint64(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				heap.Push(&q, &refEvent{at: Time(rng.Uint64n(1 << 30)), seq: uint64(depth + i)})
				heap.Pop(&q)
			}
		})
	}
}

// BenchmarkEngineFixedDelayCancel prices IndexServe's deadline pattern:
// every 250 µs of simulated time (4000 QPS) one 350 ms timer is armed
// and the one armed 16 steps (4 ms) earlier is cancelled, with a live
// short event dispatched in between — so about 1,400 cancelled timers
// are always waiting to surface. heap arms them with AfterTimer; lane
// arms them on a fixed-delay lane, which keeps them out of the heap.
func BenchmarkEngineFixedDelayCancel(b *testing.B) {
	const (
		step     = 250 * Microsecond
		deadline = 350 * Millisecond
		finishIn = 16 // steps between arming and cancelling
	)
	for _, mode := range []string{"heap", "lane"} {
		b.Run(mode, func(b *testing.B) {
			e := NewEngine()
			arm := func(fn func()) Timer { return e.AfterTimer(deadline, fn) }
			if mode == "lane" {
				arm = e.NewDelay(deadline).After
			}
			noop := func() {}
			var armed [finishIn]Timer
			iter := func(i int) {
				k := i % finishIn
				e.Cancel(armed[k])
				armed[k] = arm(noop)
				e.After(step/2, noop)
				e.Run(e.Now().Add(step))
			}
			for i := 0; i < int(deadline/step); i++ { // warm up to steady state
				iter(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iter(i)
			}
		})
	}
}
