// Package fixture holds the legal uses of the engine's scheduling API
// outside internal/sim (opaque sim.Timer handles, Engine and Delay
// scheduling), which seqcontract must leave alone.
package fixture

import "perfiso/internal/sim"

func okEngine(e *sim.Engine) {
	var tm sim.Timer // the zero Timer is a documented-valid handle
	tm = e.AfterTimer(sim.Second, func() {})
	e.Cancel(tm)
}

func okDelay(e *sim.Engine) {
	lane := e.NewDelay(sim.Second) // fixed-delay lanes stamp seq like the engine
	e.Cancel(lane.After(func() {}))
}
