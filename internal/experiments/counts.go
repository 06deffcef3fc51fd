package experiments

import (
	"perfiso/internal/cluster"
	"perfiso/internal/core"
	"perfiso/internal/harvest"
	"perfiso/internal/obs"
	"perfiso/internal/sim"
)

// foldCell adds one finished cell's sim-domain counters to the
// run-wide recording, when one is installed (obs.SetDefault: run
// -stats, or the benchmark's traced pass). The simulated components
// keep plain counters and never see the recording; this is where
// those counters reach it, once per cell, after the cell's last event.
//
// gov is a blind-isolation governor installed on its own (the
// single-machine policies), ctrls are PerfIso controllers (nil
// entries, the machines of an unisolated cluster, are skipped) and
// sched is the cell's harvest scheduler. gov and sched may be nil.
// Every cell runs its engine once from time zero, so the engine clock
// is the virtual time it advanced.
func foldCell(eng *sim.Engine, gov *core.BlindIsolation, sched *harvest.Scheduler, ctrls ...*core.Controller) {
	rec := obs.Default()
	if rec == nil {
		return
	}
	var c obs.CellCounts
	c.EventsPushed, c.EventsPopped, c.MaxHeapDepth = eng.Counts()
	c.SimNs = int64(eng.Now())
	addBlind := func(b *core.BlindIsolation) {
		c.BufferGrows += b.Grows
		c.BufferShrinks += b.Shrinks
		c.HoldoffDeferrals += b.Deferrals
	}
	if gov != nil {
		addBlind(gov)
	}
	for _, ctrl := range ctrls {
		if ctrl != nil {
			addBlind(ctrl.Blind)
			c.Evictions += ctrl.Memory.Kills
		}
	}
	if sched != nil {
		st := sched.Stats()
		c.Placements = uint64(len(sched.Placements()))
		c.Preemptions = uint64(st.Preemptions)
		c.Requeues = uint64(st.FailureRequeues)
	}
	rec.AddCell(c)
}

// controllers lists the PerfIso controller of every machine in c, in
// row-major order; an entry is nil where isolation is off.
func controllers(c *cluster.Cluster) []*core.Controller {
	var out []*core.Controller
	c.EachMachine(func(m *cluster.IndexMachine) { out = append(out, m.Controller) })
	return out
}
