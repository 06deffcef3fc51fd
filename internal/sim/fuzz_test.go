package sim

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEventHeap drives the engine's event queue with an arbitrary
// encoded sequence of operations and checks it against a brute-force
// model, then runs the same bytes as an engine program (runProgram:
// lane and queue timers, agendas, cancels, Step and Run cut-offs)
// against the container/heap reference and against itself with every
// fixed-delay event routed through AfterTimer instead of a lane.
//
// Each 3-byte group is one queue op. An even first byte b pushes at the
// model clock plus the little-endian uint16 v that follows, shifted
// left by (b>>1)%48 bits and capped at the largest Time; the clock is
// the time of the last pop the clock followed, so a push never lies
// before it, which is the engine's rule. An odd first byte, when
// anything is queued, takes the minimum out; (b>>1)&3 selects how:
//
//	0  pop; the clock follows
//	1  min, then pop; the clock follows
//	2  min, then remove; the clock stays (Run's discard past until)
//	3  pop; the clock follows unless the queue is left empty (Step
//	   discarding its last, cancelled entry)
//
// So the fuzzer freely explores interleavings, equal-time runs, entries
// in the coarse wheel, the fine wheel and the heap, times out to the
// largest Time, and growth/shrink cycles. Named seeds overfill one
// coarse slot past its walk bound and one slot near the cursor out of
// order (slot-overfill), push past the coarse wheel's span and advance
// the clock until that heap entry undercuts wheel entries
// (horizon-undercut), carry the cursor round the wheel's last index
// with entries on both sides of it (cursor-wrap), and discard an entry
// at a slot boundary without moving the cursor, then push below it
// (discard-at-slot-boundary). Invariants checked:
//
//   - every min, pop and remove takes exactly the model's minimum
//     (at, seq) — which for equal times is the FIFO (insertion-order)
//     entry;
//   - Len always matches the model;
//   - the final drain comes out totally ordered by (at, seq).
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 10, 0, 0, 10, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 5, 0, 0, 3, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{2, 0, 1, 4, 0, 1, 6, 0, 0, 3, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q queue
		var model []event
		var clock Time
		seq := uint64(0)
		// takeMin removes the model's minimum and returns it.
		takeMin := func() event {
			mi := 0
			for j := 1; j < len(model); j++ {
				if model[j].Less(model[mi]) {
					mi = j
				}
			}
			want := model[mi]
			model = append(model[:mi], model[mi+1:]...)
			return want
		}
		for i := 0; i+2 < len(data); i += 3 {
			b := data[i]
			if b&1 == 1 && len(model) > 0 {
				mode := (b >> 1) & 3
				var peeked event
				if mode == 1 || mode == 2 {
					peeked = q.min()
				}
				want := takeMin()
				if mode == 2 {
					q.remove()
				} else {
					got := q.pop()
					if got != want {
						t.Fatalf("op %d: pop = %+v, model min %+v", i/3, got, want)
					}
					if mode != 3 || len(model) > 0 {
						clock = got.at
					}
				}
				if (mode == 1 || mode == 2) && peeked != want {
					t.Fatalf("op %d: min = %+v, model min %+v", i/3, peeked, want)
				}
			} else {
				d := Time(binary.LittleEndian.Uint16(data[i+1:])) << ((b >> 1) % 48)
				if d > math.MaxInt64-clock {
					d = math.MaxInt64 - clock
				}
				seq++
				ev := event{at: clock + d, seq: seq}
				q.push(ev, clock)
				model = append(model, ev)
			}
			if q.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model %d", i/3, q.Len(), len(model))
			}
		}
		var drained []event
		for q.Len() > 0 {
			got := q.pop()
			if want := takeMin(); got != want {
				t.Fatalf("drain: pop = %+v, model min %+v", got, want)
			}
			drained = append(drained, got)
		}
		if len(model) != 0 {
			t.Fatalf("drain left %d model entries", len(model))
		}
		for i := 1; i < len(drained); i++ {
			p, c := drained[i-1], drained[i]
			if c.at < p.at || (c.at == p.at && c.seq < p.seq) {
				t.Fatalf("drain order violated at %d: %+v then %+v (FIFO tie-break broken)", i, p, c)
			}
		}

		got := runProgram(newEngineAPI(NewEngine(), false), data, nil)
		want := runProgram(refAPI{&refEngine{}}, data, nil)
		if d := diffLogs(got, want); d != "" {
			t.Fatalf("engine program vs reference: %s", d)
		}
		checkLaneCounts(t, data)
	})
}
