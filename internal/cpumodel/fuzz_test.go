package cpumodel

import (
	"slices"
	"testing"

	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// FuzzMachine drives one machine with byte-coded operations: owned and
// detached spawns (a detached burst's OnDone may spawn the next), Cancel,
// Release, SetAffinity, cycle caps on and off, Kill, Step and Run, with
// immediate or 300 µs delayed eviction. After every operation it calls
// CheckInvariants and checks a model the harness keeps itself:
//   - each process's list walk yields exactly the threads the harness has
//     not seen finish (no OnDone, Cancel or Kill yet), in ascending ID
//     order;
//   - a spawn never returns a struct the harness still holds unreleased,
//     nor one whose thread is still running;
//   - OnDone fires at most once per thread, never after Cancel, Kill or
//     Release.
//
// The first byte picks the eviction latency; each later operation is an
// opcode byte followed by its argument bytes (a missing byte reads 0).
// The seed corpus is in testdata/fuzz/FuzzMachine.
func FuzzMachine(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		const cores = 8
		all := AllCores(cores)
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.Cores = cores
		cfg.Quantum = 2 * sim.Millisecond
		cfg.ThrottleCheck = 100 * sim.Microsecond
		if data[0]&1 == 1 {
			cfg.EvictionLatency = 300 * sim.Microsecond
		}
		m := New(eng, sim.NewRNG(1), cfg)
		procs := []*Process{
			m.NewProcess("primary", stats.ClassPrimary),
			m.NewProcess("batch", stats.ClassSecondary),
			m.NewProcess("os", stats.ClassOS),
		}
		pos := 1
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}

		// spawned is one thread as the harness sees it.
		type spawned struct {
			t        *Thread
			id       int
			p        *Process
			detached bool
			live     bool // no OnDone, Cancel or Kill seen yet
			released bool // an owned thread handed back with Release
		}
		var live []*spawned              // live threads, in ID order
		var owned []*spawned             // owned threads not yet released
		latest := map[*Thread]*spawned{} // each struct's latest thread
		var spawn func(p *Process, burst sim.Duration, aff CPUSet, detached, again bool)
		spawn = func(p *Process, burst sim.Duration, aff CPUSet, detached, again bool) {
			s := &spawned{p: p, detached: detached, live: true}
			onDone := func() {
				if !s.live || s.released {
					t.Fatalf("OnDone fired for thread %d after it finished or was released", s.id)
				}
				s.live = false
				if again {
					spawn(p, sim.Duration(s.id%40+1)*50*sim.Microsecond, all, true, s.id%3 != 0)
				}
			}
			if detached {
				m.SpawnDetached(p, burst, aff, onDone)
				s.t = p.tail
			} else {
				s.t = m.Spawn(p, burst, aff, onDone)
			}
			if old := latest[s.t]; old != nil && (old.live || !old.detached && !old.released) {
				t.Fatalf("spawn of thread %d returned thread %d's struct, still held", s.t.ID, old.id)
			}
			s.id = s.t.ID
			latest[s.t] = s
			live = append(live, s)
			if !detached {
				owned = append(owned, s)
			}
		}
		burst := func(b int) sim.Duration {
			if b == 0 {
				return Forever
			}
			return sim.Duration(b) * 20 * sim.Microsecond
		}

		for op := 0; pos < len(data); op++ {
			switch next() % 10 {
			case 0:
				p, d := procs[next()%3], burst(next())
				spawn(p, d, CPUSet(next())&all, false, false)
			case 1:
				p, d := procs[next()%3], burst(next())
				spawn(p, d, all, true, next()&1 == 1)
			case 2:
				if len(owned) > 0 {
					s := owned[next()%len(owned)]
					m.Cancel(s.t)
					s.live = false
				}
			case 3:
				// Release the first owned thread from the chosen index on
				// that has finished.
				for i, n := next(), 0; n < len(owned); n++ {
					j := (i + n) % len(owned)
					s := owned[j]
					if s.live {
						continue
					}
					if s.t.State != StateDone {
						t.Fatalf("op %d: finished thread %d is %v", op, s.id, s.t.State)
					}
					m.Release(s.t)
					s.released = true
					owned = slices.Delete(owned, j, j+1)
					break
				}
			case 4:
				m.SetAffinity(procs[next()%3], CPUSet(next())&all)
			case 5:
				m.SetCycleCap(procs[next()%3], 0.05, sim.Millisecond)
			case 6:
				m.SetCycleCap(procs[next()%3], 0, 0)
			case 7:
				p := procs[next()%3]
				for _, s := range live {
					if s.p == p {
						s.live = false
					}
				}
				m.Kill(p)
			case 8:
				eng.Step()
			default:
				eng.Run(eng.Now().Add(sim.Duration(next()+1) * 20 * sim.Microsecond))
			}

			m.CheckInvariants()
			k := 0
			for _, s := range live {
				if s.live {
					live[k] = s
					k++
				}
			}
			clear(live[k:])
			live = live[:k]
			for _, p := range procs {
				th := p.head
				for _, s := range live {
					if s.p != p {
						continue
					}
					if th != s.t || th.ID != s.id {
						t.Fatalf("op %d: process %s's list lacks live thread %d or holds another in its place", op, p.Name, s.id)
					}
					th = th.next
				}
				if th != nil {
					t.Fatalf("op %d: process %s links thread %d, which has finished", op, p.Name, th.ID)
				}
			}
		}
	})
}
