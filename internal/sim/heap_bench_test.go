package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// delayRing is how many hold-model delays BenchmarkEventHeap draws
// before timing: a power of two, so the index is a mask.
const delayRing = 4096

// BenchmarkEventHeap prices one hold-model step, the engine's own
// traffic: pop the minimum, then push one entry at its time plus a
// seeded exponential delay (mean 1 ms), so the queue stays at a fixed
// depth and times only move forward. The depths are those measured in
// real cells: about 50 live events on one machine, about 320 in the
// 12-machine cluster, and 10k as a stress point. The delays are drawn
// before the timer starts, into a ring of delayRing values that the
// loop cycles through, so the loop times the queue and not the draw.
//
//	wheel — the engine's queue (timing wheel and far heap) over
//	        pointer-free entries;
//	ref   — the test-only reference: boxed *refEvent elements through
//	        container/heap (one allocation per push).
//
// Two more shapes price the queue alone on traffic that fills single
// wheel slots:
//
//	wheel/same-instant=44 — 44 entries due at one instant, each
//	        re-armed 100 µs later as it pops: the paper-scale cluster's
//	        polls;
//	wheel/one-slot=100k — bursts of 100k entries inside one µs (times
//	        now + i%977 ns), each pushed and then drained: what
//	        TestEngineBurstGrowthAndReuse schedules. One op is one
//	        entry's push and pop.
//
// CI's micro-benchmark smoke step runs every shape once so they keep
// building; compare them with repeated runs on one host.
func BenchmarkEventHeap(b *testing.B) {
	const mean = float64(Millisecond)
	// delays draws the hold model's delays after the initial fill, from
	// the same stream.
	delays := func(rng *RNG) []Time {
		d := make([]Time, delayRing)
		for i := range d {
			d[i] = Time(rng.Exp(mean))
		}
		return d
	}
	for _, depth := range []int{50, 320, 10_000} {
		name := fmt.Sprintf("depth=%d", depth)
		b.Run("wheel/"+name, func(b *testing.B) {
			var q queue
			rng := NewRNG(1)
			for i := 0; i < depth; i++ {
				q.push(event{at: Time(rng.Exp(mean)), seq: uint64(i)}, 0)
			}
			d := delays(rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				q.push(event{at: ev.at + d[i&(delayRing-1)], seq: uint64(depth + i)}, ev.at)
			}
		})
		b.Run("ref/"+name, func(b *testing.B) {
			var q refQueue
			rng := NewRNG(1)
			for i := 0; i < depth; i++ {
				heap.Push(&q, &refEvent{at: Time(rng.Exp(mean)), seq: uint64(i)})
			}
			d := delays(rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := heap.Pop(&q).(*refEvent)
				heap.Push(&q, &refEvent{at: ev.at + d[i&(delayRing-1)], seq: uint64(depth + i)})
			}
		})
	}
	b.Run("wheel/same-instant=44", func(b *testing.B) {
		const group = 44
		var q queue
		for i := 0; i < group; i++ {
			q.push(event{seq: uint64(i)}, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := q.pop()
			q.push(event{at: ev.at.Add(100 * Microsecond), seq: uint64(group + i)}, ev.at)
		}
	})
	b.Run("wheel/one-slot=100k", func(b *testing.B) {
		const burst = 100_000
		var q queue
		var now Time
		seq := uint64(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i += burst {
			for j := 0; j < burst && i+j < b.N; j++ {
				seq++
				q.push(event{at: now + Time(j%977), seq: seq}, now)
			}
			for q.Len() > 0 {
				now = q.pop().at
			}
		}
	})
}

// BenchmarkEngineFixedDelayCancel prices IndexServe's deadline pattern:
// every 250 µs of simulated time (4000 QPS) one 350 ms timer is armed
// and the one armed 16 steps (4 ms) earlier is cancelled, with a live
// short event dispatched in between. heap arms the timers with
// AfterTimer, so about 1,400 cancelled ones always wait in the queue;
// lane arms them on a fixed-delay lane, which keeps them out of the
// queue and drops each as soon as it reaches the lane's front. The
// busy variants add a 100 µs ticker, as a cell's other events do, so
// no Run reaches a cancelled entry past its until: only then does
// holding cancelled lane entries until their time cost anything.
func BenchmarkEngineFixedDelayCancel(b *testing.B) {
	const (
		step     = 250 * Microsecond
		deadline = 350 * Millisecond
		finishIn = 16 // steps between arming and cancelling
	)
	for _, mode := range []struct {
		name       string
		lane, busy bool
	}{{"heap", false, false}, {"lane", true, false}, {"heap-busy", false, true}, {"lane-busy", true, true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := NewEngine()
			arm := func(fn func()) Timer { return e.AfterTimer(deadline, fn) }
			if mode.lane {
				arm = e.NewDelay(deadline).After
			}
			if mode.busy {
				e.Ticker(100*Microsecond, func() bool { return true })
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
