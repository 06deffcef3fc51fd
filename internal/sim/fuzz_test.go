package sim

import (
	"encoding/binary"
	"testing"
)

// FuzzEventHeap drives the flat 4-ary heap with an arbitrary encoded
// sequence of operations and checks it against a brute-force model,
// then runs the same bytes as an engine program (runProgram: lane and
// heap timers, agendas, cancels, Step and Run cut-offs) against the
// container/heap reference and against itself with every fixed-delay
// event routed through AfterTimer instead of a lane.
// Each 3-byte group is one op: an odd first byte pops (when anything
// is queued), an even one pushes at the little-endian uint16 timestamp
// that follows — so the fuzzer freely explores interleavings, equal-
// timestamp runs, and growth/shrink cycles. Invariants checked:
//
//   - every Pop returns exactly the model's minimum (at, seq) — which
//     for equal timestamps is the FIFO (insertion-order) element;
//   - Len always matches the model;
//   - the final drain (pops with no intervening pushes) comes out
//     totally ordered by (at, seq).
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 10, 0, 0, 10, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 5, 0, 0, 3, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{2, 0, 1, 4, 0, 1, 6, 0, 0, 3, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Heap[event]
		var model []event
		seq := uint64(0)
		for i := 0; i+2 < len(data); i += 3 {
			if data[i]&1 == 1 && len(model) > 0 {
				got := h.Pop()
				mi := 0
				for j := 1; j < len(model); j++ {
					if model[j].Less(model[mi]) {
						mi = j
					}
				}
				want := model[mi]
				model = append(model[:mi], model[mi+1:]...)
				if got != want {
					t.Fatalf("op %d: Pop = %+v, model min %+v", i/3, got, want)
				}
			} else {
				seq++
				ev := event{at: Time(binary.LittleEndian.Uint16(data[i+1:])), seq: seq}
				h.Push(ev)
				model = append(model, ev)
			}
			if h.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model %d", i/3, h.Len(), len(model))
			}
		}
		var drained []event
		for h.Len() > 0 {
			got := h.Pop()
			mi := 0
			for j := 1; j < len(model); j++ {
				if model[j].Less(model[mi]) {
					mi = j
				}
			}
			if got != model[mi] {
				t.Fatalf("drain: Pop = %+v, model min %+v", got, model[mi])
			}
			model = append(model[:mi], model[mi+1:]...)
			drained = append(drained, got)
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
