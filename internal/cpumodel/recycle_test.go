package cpumodel

import (
	"fmt"
	"strings"
	"testing"

	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// churn spawns n Forever threads in p and cancels them, which leaves
// p's thread list long and mostly tombstones, so it compacts.
func churn(m *Machine, p *Process, n int) {
	ts := make([]*Thread, n)
	for i := range ts {
		ts[i] = m.Spawn(p, Forever, AllCores(m.Cores()), nil)
	}
	for _, t := range ts {
		m.Cancel(t)
	}
}

// TestRecycleRandomized drives random Spawn, Cancel, Release,
// SetAffinity, freezing and unfreezing cycle caps, Kill and
// engine-advance sequences, with immediate and delayed eviction, and
// checks the bookkeeping after every step — CheckInvariants verifies
// that no free-list thread is running, queued, listed in its process's
// threads or parked. OnDone must never fire for a released thread, and
// released threads must actually come back from Spawn.
func TestRecycleRandomized(t *testing.T) {
	const cores = 8
	all := AllCores(cores)
	reused := 0
	for _, evict := range []sim.Duration{0, 300 * sim.Microsecond} {
		for seed := uint64(1); seed <= 20; seed++ {
			eng := sim.NewEngine()
			cfg := DefaultConfig()
			cfg.Cores = cores
			cfg.Quantum = 2 * sim.Millisecond
			cfg.ThrottleCheck = 100 * sim.Microsecond
			cfg.EvictionLatency = evict
			m := New(eng, sim.NewRNG(seed), cfg)
			procs := []*Process{
				m.NewProcess("primary", stats.ClassPrimary),
				m.NewProcess("batch", stats.ClassSecondary),
				m.NewProcess("os", stats.ClassOS),
			}
			r := sim.NewRNG(seed)
			type owned struct {
				t        *Thread
				released bool
			}
			var live []*owned              // threads not yet released
			released := map[*Thread]bool{} // pointers handed back, compared only
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
			for step := 0; step < 400; step++ {
				switch r.Intn(10) {
				case 0, 1, 2:
					p := procs[r.Intn(len(procs))]
					burst := Forever
					if r.Intn(4) > 0 {
						burst = sim.Duration(r.IntBetween(10, 3000)) * sim.Microsecond
					}
					aff := all
					if r.Intn(3) == 0 {
						aff = mask()
					}
					o := &owned{}
					o.t = m.Spawn(p, burst, aff, func() {
						if o.released {
							t.Fatalf("seed %d step %d: OnDone fired for a released thread", seed, step)
						}
					})
					if released[o.t] {
						delete(released, o.t)
						reused++
					}
					live = append(live, o)
				case 3:
					if len(live) > 0 {
						m.Cancel(live[r.Intn(len(live))].t)
					}
				case 4, 5:
					// Release a Done thread (completed, cancelled or killed).
					for i, o := range live {
						if o.t.State == StateDone {
							o.released = true
							released[o.t] = true
							m.Release(o.t)
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				case 6:
					m.SetAffinity(procs[r.Intn(len(procs))], mask())
				case 7:
					p := procs[r.Intn(len(procs))]
					if r.Intn(2) == 0 {
						m.SetCycleCap(p, 0.05, sim.Millisecond)
					} else {
						m.SetCycleCap(p, 0, 0)
					}
				case 8:
					if r.Intn(8) == 0 {
						m.Kill(procs[r.Intn(len(procs))])
					} else {
						eng.Step()
					}
				default:
					eng.Run(eng.Now().Add(sim.Duration(r.IntBetween(1, 2000)) * sim.Microsecond))
				}
				m.CheckInvariants()
			}
		}
	}
	if reused == 0 {
		t.Fatal("no released thread came back from Spawn; reuse went untested")
	}
}

// TestDetachedRecycleRandomized drives random detached spawns (some
// of whose OnDone callbacks spawn again at once), owned spawns and
// releases, affinity changes, cycle caps, kills and engine advances,
// with CheckInvariants after every step. Every detached burst must
// fire its OnDone exactly once if it completes and never if it is
// killed, and a spawn may only reuse a struct that is Done and no
// longer listed in its process's threads.
func TestDetachedRecycleRandomized(t *testing.T) {
	const cores = 8
	all := AllCores(cores)
	reused := 0
	for _, evict := range []sim.Duration{0, 300 * sim.Microsecond} {
		for seed := uint64(1); seed <= 20; seed++ {
			eng := sim.NewEngine()
			cfg := DefaultConfig()
			cfg.Cores = cores
			cfg.Quantum = 2 * sim.Millisecond
			cfg.ThrottleCheck = 100 * sim.Microsecond
			cfg.EvictionLatency = evict
			m := New(eng, sim.NewRNG(seed), cfg)
			procs := []*Process{
				m.NewProcess("primary", stats.ClassPrimary),
				m.NewProcess("batch", stats.ClassSecondary),
				m.NewProcess("os", stats.ClassOS),
			}
			r := sim.NewRNG(seed)
			// burst is one detached spawn: the struct it got, that
			// incarnation's ID, and what happened to it.
			type burst struct {
				t      *Thread
				id     int
				fired  int
				killed bool
			}
			var bursts []*burst
			seen := map[*Thread]bool{}
			// spawned checks a fresh spawn's struct against every
			// tracked one: reusing a struct still listed or not Done
			// would alias a live thread.
			spawned := func(th *Thread, inUse map[*Thread]bool, step int) {
				if inUse[th] {
					t.Fatalf("seed %d step %d: spawn reused thread %d's struct while it was in use", seed, step, th.ID)
				}
				if seen[th] {
					reused++
				}
				seen[th] = true
			}
			inUse := func() map[*Thread]bool {
				u := map[*Thread]bool{}
				for _, b := range bursts {
					if b.t.ID == b.id && (b.t.State != StateDone || b.t.listed) {
						u[b.t] = true
					}
				}
				return u
			}
			var detach func(p *Process, step int, again bool)
			detach = func(p *Process, step int, again bool) {
				b := &burst{}
				u := inUse()
				m.SpawnDetached(p, sim.Duration(r.IntBetween(10, 3000))*sim.Microsecond, all, func() {
					b.fired++
					if b.fired > 1 || b.killed {
						t.Fatalf("seed %d: burst %d fired %d times (killed %v)", seed, b.id, b.fired, b.killed)
					}
					if again {
						detach(p, step, r.Intn(2) == 0)
					}
				})
				b.t = p.threads[len(p.threads)-1]
				b.id = b.t.ID
				spawned(b.t, u, step)
				bursts = append(bursts, b)
			}
			var owned []*Thread
			for step := 0; step < 400; step++ {
				p := procs[r.Intn(len(procs))]
				switch r.Intn(10) {
				case 0, 1, 2, 3:
					detach(p, step, r.Intn(3) == 0)
				case 4:
					u := inUse()
					th := m.Spawn(p, sim.Duration(r.IntBetween(10, 3000))*sim.Microsecond, all, nil)
					spawned(th, u, step)
					owned = append(owned, th)
				case 5:
					for i, th := range owned {
						if th.State == StateDone {
							m.Release(th)
							owned = append(owned[:i], owned[i+1:]...)
							break
						}
					}
				case 6:
					m.SetAffinity(p, CPUSet(r.Uint64())&all)
				case 7:
					if r.Intn(2) == 0 {
						m.SetCycleCap(p, 0.05, sim.Millisecond)
					} else {
						m.SetCycleCap(p, 0, 0)
					}
				case 8:
					if r.Intn(4) == 0 {
						for _, b := range bursts {
							if b.t.Proc == p && b.t.ID == b.id && b.t.State != StateDone {
								b.killed = true
							}
						}
						m.Kill(p)
					} else {
						eng.Step()
					}
				default:
					eng.Run(eng.Now().Add(sim.Duration(r.IntBetween(1, 2000)) * sim.Microsecond))
				}
				m.CheckInvariants()
			}
			// Drain: lift every restriction so each surviving burst
			// completes.
			for _, p := range procs {
				m.SetCycleCap(p, 0, 0)
				m.SetAffinity(p, all)
			}
			eng.RunAll()
			m.CheckInvariants()
			for _, b := range bursts {
				want := 1
				if b.killed {
					want = 0
				}
				if b.fired != want {
					t.Fatalf("seed %d: burst %d (killed %v) fired %d times, want %d", seed, b.id, b.killed, b.fired, want)
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no detached thread's struct came back from a spawn; reuse went untested")
	}
}

func TestReleaseMisusePanics(t *testing.T) {
	eng, m := testMachine(4)
	p := m.NewProcess("svc", stats.ClassPrimary)
	th := m.Spawn(p, sim.Millisecond, AllCores(4), nil)
	mustPanic(t, "release of a running thread", func() { m.Release(th) })
	eng.RunAll()
	m.Release(th)
	mustPanic(t, "second release", func() { m.Release(th) })

	other := New(eng, sim.NewRNG(2), m.cfg)
	foreign := other.Spawn(other.NewProcess("x", stats.ClassPrimary), sim.Millisecond, AllCores(4), nil)
	other.Cancel(foreign)
	mustPanic(t, "release on another machine", func() { m.Release(foreign) })
}

// TestReleasedTombstoneWaitsForCompaction: a thread released while its
// process's thread list still holds it as a tombstone is not reused
// until compaction drops it — reusing it earlier would list one
// pointer twice, once as a live thread out of ID order.
func TestReleasedTombstoneWaitsForCompaction(t *testing.T) {
	_, m := testMachine(4)
	p := m.NewProcess("svc", stats.ClassPrimary)
	th := m.Spawn(p, Forever, AllCores(4), nil)
	keep := m.Spawn(p, Forever, AllCores(4), nil)
	m.Cancel(th)
	m.Release(th)
	if got := m.Spawn(p, Forever, AllCores(4), nil); got == th {
		t.Fatal("a released tombstone was reused before compaction")
	}
	m.CheckInvariants()
	churn(m, p, 40)
	m.CheckInvariants()
	if got := m.Spawn(p, Forever, AllCores(4), nil); got != th {
		t.Fatal("the released thread was not reused after compaction")
	}
	if keep.State != StateRunning {
		t.Fatalf("unrelated thread is %v, want running", keep.State)
	}
	m.CheckInvariants()
}

// TestCancelledParkedThreadLeavesParkedList: a parked thread that is
// cancelled and released must be off its process's parked list, so
// that process's next unparkAll never re-places the struct's next
// incarnation.
func TestCancelledParkedThreadLeavesParkedList(t *testing.T) {
	_, m := testMachine(4)
	a := m.NewProcess("a", stats.ClassSecondary)
	b := m.NewProcess("b", stats.ClassSecondary)
	m.SetAffinity(a, 0)
	m.SetAffinity(b, 0)
	th := m.Spawn(a, Forever, AllCores(4), nil)
	m.Cancel(th)
	m.CheckInvariants()
	m.Release(th)
	churn(m, a, 40)
	next := m.Spawn(b, Forever, AllCores(4), nil)
	if next != th {
		t.Fatal("the released thread was not reused")
	}
	m.SetAffinity(a, AllCores(4)) // unparks a's threads only
	if next.State != StateParked || len(b.parked) != 1 {
		t.Fatalf("b's thread is %v with %d parked entries, want parked once", next.State, len(b.parked))
	}
	m.CheckInvariants()
	m.SetAffinity(b, AllCores(4))
	if next.State != StateRunning {
		t.Fatalf("b's thread is %v after b's unpark, want running", next.State)
	}
	m.CheckInvariants()
}

// TestDelayedEvictionSkipsNextIncarnation: an eviction armed for a
// thread that is then cancelled, released and reused must not preempt
// the new thread, which keeps running until its own eviction is due.
func TestDelayedEvictionSkipsNextIncarnation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.EvictionLatency = sim.Millisecond
	m := New(eng, sim.NewRNG(1), cfg)
	a := m.NewProcess("a", stats.ClassSecondary)
	b := m.NewProcess("b", stats.ClassSecondary)
	th := m.Spawn(a, Forever, AllCores(4), nil)
	c := int(th.core)
	m.SetAffinity(a, AllCores(4).Without(c)) // eviction due at 1 ms
	m.Cancel(th)
	m.Release(th)
	churn(m, a, 40)
	next := m.Spawn(b, Forever, CPUSet(0).With(c), nil)
	if next != th || next.State != StateRunning || int(next.core) != c {
		t.Fatalf("reuse did not put the thread back on core %d", c)
	}
	eng.Run(sim.Time(500 * sim.Microsecond))
	m.SetAffinity(b, AllCores(4).Without(c)) // eviction due at 1.5 ms
	eng.Run(sim.Time(1200 * sim.Microsecond))
	if next.State != StateRunning {
		t.Fatalf("at 1.2 ms the new thread is %v: the old incarnation's eviction reached it", next.State)
	}
	m.CheckInvariants()
	eng.Run(sim.Time(2 * sim.Millisecond))
	if next.State != StateParked {
		t.Fatalf("at 2 ms the new thread is %v, want parked by its own eviction", next.State)
	}
	m.CheckInvariants()
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestCheckInvariantsCatchesCorruption breaks a consistent machine's
// bookkeeping one way at a time and requires CheckInvariants to panic
// naming the fault.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	// setup returns a machine with running, queued, parked and free
	// threads that passes the check.
	setup := func() (m *Machine, svc, batch *Process) {
		_, m = testMachine(2)
		svc = m.NewProcess("svc", stats.ClassPrimary)
		batch = m.NewProcess("batch", stats.ClassSecondary)
		for i := 0; i < 4; i++ { // two run, two queue
			m.Spawn(svc, Forever, AllCores(2), nil)
		}
		for i := 0; i < 3; i++ { // an empty affinity parks them
			m.Spawn(batch, Forever, 0, nil)
		}
		done := make([]*Thread, 40)
		for i := range done {
			done[i] = m.Spawn(batch, Forever, AllCores(2), nil)
		}
		for _, th := range done { // compaction moves most to the free list
			m.Cancel(th)
			m.Release(th)
		}
		m.CheckInvariants()
		if len(m.free) < 2 || len(batch.parked) != 3 {
			t.Fatalf("setup: %d free and %d parked threads, want at least 2 and 3", len(m.free), len(batch.parked))
		}
		return m, svc, batch
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(m *Machine, svc, batch *Process)
	}{
		{"thread listed twice", "misfiled", func(m *Machine, svc, batch *Process) {
			svc.threads = append(svc.threads, svc.threads[len(svc.threads)-1])
		}},
		{"thread listed by two processes", "misfiled", func(m *Machine, svc, batch *Process) {
			batch.threads = append(batch.threads, svc.threads[0])
		}},
		{"parked thread missing from its parked list", "3 parked threads", func(m *Machine, svc, batch *Process) {
			batch.parked = batch.parked[:2]
		}},
		{"parked thread listed twice in place of another", "parked list holds thread", func(m *Machine, svc, batch *Process) {
			batch.parked[2] = batch.parked[0]
		}},
		{"parked list holds an unlisted thread", "parked list holds parked thread", func(m *Machine, svc, batch *Process) {
			f := m.free[len(m.free)-1]
			m.free = m.free[:len(m.free)-1]
			f.State, f.Proc, f.released = StateParked, batch, false
			batch.parked[2] = f
		}},
		{"free-list thread still listed", "still referenced", func(m *Machine, svc, batch *Process) {
			th := m.Spawn(svc, Forever, AllCores(2), nil)
			m.Cancel(th)
			m.Release(th) // a listed tombstone until compaction
			m.free = append(m.free, th)
		}},
		{"free-list thread listed twice", "free list holds thread", func(m *Machine, svc, batch *Process) {
			m.free = append(m.free, m.free[0])
		}},
		{"core running an unlisted thread", "runs unlisted thread", func(m *Machine, svc, batch *Process) {
			svc.threads = svc.threads[1:]
			svc.live--
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, svc, batch := setup()
			c.corrupt(m, svc, batch)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				m.CheckInvariants()
				return ""
			}()
			if !strings.Contains(msg, c.want) {
				t.Fatalf("CheckInvariants panicked with %q, want a message containing %q", msg, c.want)
			}
		})
	}
}

// TestCheckInvariantsDoesNotAllocate: once the machine's scratch has
// grown, checking a machine with queued, parked and free threads
// allocates nothing.
func TestCheckInvariantsDoesNotAllocate(t *testing.T) {
	_, m := testMachine(2)
	p := m.NewProcess("svc", stats.ClassPrimary)
	for i := 0; i < 8; i++ {
		m.Spawn(p, Forever, AllCores(2), nil)
		m.Spawn(p, Forever, 0, nil)
	}
	churn(m, p, 40)
	if allocs := testing.AllocsPerRun(10, m.CheckInvariants); allocs != 0 {
		t.Fatalf("CheckInvariants made %v allocations, want 0", allocs)
	}
}
