package cpumodel

import (
	"testing"

	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// scanOldestEligible is oldestEligible without its process-mask check:
// a full scan of every run queue, the reference the pruned search must
// agree with.
func scanOldestEligible(m *Machine, coreID int) *Thread {
	var best *Thread
	for _, c := range m.core {
		for _, t := range c.queue {
			if t.State != StateReady || !t.eff().Has(coreID) {
				continue
			}
			if best == nil || t.since < best.since {
				best = t
			}
		}
	}
	return best
}

// TestOldestEligibleMatchesFullScan drives random Spawn, Cancel,
// SetAffinity and engine-advance sequences — process masks that exclude
// cores, empty masks, thread-level affinities, Forever and short bursts
// under a short quantum — and after every step checks the bookkeeping
// (per-process queued counts included) and that oldestEligible returns
// the full scan's thread on every core.
func TestOldestEligibleMatchesFullScan(t *testing.T) {
	const cores = 8
	all := AllCores(cores)
	pruned := 0
	for seed := uint64(1); seed <= 30; seed++ {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Cores = cores
		cfg.Quantum = 2 * sim.Millisecond
		m := New(eng, sim.NewRNG(seed), cfg)
		procs := []*Process{
			m.NewProcess("primary", stats.ClassPrimary),
			m.NewProcess("bully", stats.ClassSecondary),
			m.NewProcess("os", stats.ClassOS),
		}
		r := sim.NewRNG(seed)
		var threads []*Thread
		mask := func() CPUSet {
			switch r.Intn(4) {
			case 0:
				return all
			case 1:
				return TopCores(cores, r.IntBetween(1, cores-1))
			case 2:
				return all &^ TopCores(cores, r.IntBetween(1, cores-1))
			default:
				return CPUSet(r.Uint64()) & all // may be empty
			}
		}
		for step := 0; step < 300; step++ {
			switch r.Intn(6) {
			case 0, 1:
				p := procs[r.Intn(len(procs))]
				burst := Forever
				if r.Intn(3) > 0 {
					burst = sim.Duration(r.IntBetween(10, 5000)) * sim.Microsecond
				}
				aff := all
				if r.Intn(2) == 0 {
					aff = mask()
				}
				threads = append(threads, m.Spawn(p, burst, aff, nil))
			case 2:
				if len(threads) > 0 {
					m.Cancel(threads[r.Intn(len(threads))])
				}
			case 3:
				m.SetAffinity(procs[r.Intn(len(procs))], mask())
			case 4:
				eng.Step()
			default:
				eng.Run(eng.Now().Add(sim.Duration(r.IntBetween(1, 3000)) * sim.Microsecond))
			}
			m.CheckInvariants()
			for c := 0; c < cores; c++ {
				got, want := m.oldestEligible(c), scanOldestEligible(m, c)
				if got != want {
					t.Fatalf("seed %d step %d core %d: oldestEligible = %v, full scan %v", seed, step, c, threadID(got), threadID(want))
				}
				if m.queuedCount > 0 && !m.mayAdmit(c) {
					pruned++
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no step left queued threads that a core's process masks exclude; the prune went untested")
	}
}

func threadID(t *Thread) int {
	if t == nil {
		return 0
	}
	return t.ID
}
