// Package fixture seeds seqcontract violations: building and mutating
// sim.Heap outside internal/sim, next to the legal uses (Len, opaque
// sim.Timer handles, Engine and Delay scheduling).
package fixture

import "perfiso/internal/sim"

type ev struct{ at sim.Time }

func (e ev) Less(o ev) bool { return e.at < o.at }

func badLit() {
	h := sim.Heap[ev]{} // want `sim\.Heap constructed outside internal/sim`
	_ = h
}

func badVar() {
	var h sim.Heap[ev] // want `sim\.Heap declared outside internal/sim`
	_ = h.Len()
}

func badNew() {
	h := new(sim.Heap[ev]) // want `sim\.Heap constructed outside internal/sim`
	_ = h
}

func badMutate(h *sim.Heap[ev]) {
	h.Push(ev{at: 1}) // want `sim\.Heap\.Push called outside internal/sim`
	_ = h.Pop()       // want `sim\.Heap\.Pop called outside internal/sim`
	_ = h.Min()       // want `sim\.Heap\.Min called outside internal/sim`
	h.Reset()         // want `sim\.Heap\.Reset called outside internal/sim`
}

func okLen(h *sim.Heap[ev]) int {
	return h.Len() // read-only bookkeeping is allowed
}

func okEngine(e *sim.Engine) {
	var tm sim.Timer // the zero Timer is a documented-valid handle
	tm = e.AfterTimer(sim.Second, func() {})
	e.Cancel(tm)
}

func okDelay(e *sim.Engine) {
	lane := e.NewDelay(sim.Second) // fixed-delay lanes stamp seq like the engine
	e.Cancel(lane.After(func() {}))
}

func suppressed(h *sim.Heap[ev]) {
	h.Push(ev{at: 2}) //perfiso:allow seqcontract fixture exercises suppression
}
