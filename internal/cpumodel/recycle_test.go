package cpumodel

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// churn spawns n Forever threads in p and cancels them without
// releasing them, so each is linked into p's list and then unlinked.
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
// that no free-list thread is running, queued, linked into its
// process's list or parked. OnDone must never fire for a released
// thread, and released threads must actually come back from Spawn.
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
// killed, and a spawn may only reuse a struct that is Done.
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
			// tracked one: reusing a struct that is not Done would
			// alias a live thread.
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
					if b.t.ID == b.id && b.t.State != StateDone {
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
				b.t = p.tail
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

// TestSpawnReusesReleasedThread: a thread leaves its process's list the
// moment it is Done, so the next Spawn after a Release reuses it at
// once, whether it was cancelled or completed, as the newest thread at
// the list's tail. A thread that is not Done, or Done but not released,
// is never reused.
func TestSpawnReusesReleasedThread(t *testing.T) {
	eng, m := testMachine(2)
	p := m.NewProcess("svc", stats.ClassPrimary)
	held := map[*Thread]bool{} // spawned and not released
	spawn := func(burst sim.Duration) *Thread {
		th := m.Spawn(p, burst, AllCores(2), nil)
		if held[th] {
			t.Fatalf("spawn returned thread %d's struct, which was never released", th.ID)
		}
		held[th] = true
		m.CheckInvariants()
		return th
	}
	for i := 0; i < 4; i++ { // two run, two queue
		spawn(Forever)
	}
	cancelled := spawn(Forever)
	m.Cancel(cancelled)
	spawn(Forever) // cancelled is Done but not released
	m.Release(cancelled)
	delete(held, cancelled)
	if got := spawn(Forever); got != cancelled || got.State != StateReady || p.tail != got {
		t.Fatal("the cancelled and released thread was not reused by the next spawn")
	}

	short := spawn(sim.Millisecond)
	for th := p.head; th != short; th = p.head { // so short runs
		m.Cancel(th)
	}
	eng.Run(sim.Time(5 * sim.Millisecond))
	if short.State != StateDone {
		t.Fatalf("the short burst is %v, want done", short.State)
	}
	m.Release(short)
	delete(held, short)
	if got := spawn(Forever); got != short || p.tail != got || got.ID != m.nextThread {
		t.Fatal("the completed and released thread was not reused as the newest thread")
	}
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
		done := make([]*Thread, 4)
		for i := range done {
			done[i] = m.Spawn(batch, Forever, AllCores(2), nil)
		}
		for _, th := range done {
			m.Cancel(th)
			m.Release(th)
		}
		m.CheckInvariants()
		if m.free == nil || m.free.next == nil || len(batch.parked) != 3 || svc.live != 4 {
			t.Fatal("setup: want several free threads, 3 parked and 4 svc threads linked")
		}
		return m, svc, batch
	}
	lastFree := func(m *Machine) *Thread {
		f := m.free
		for f.next != nil {
			f = f.next
		}
		return f
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(m *Machine, svc, batch *Process)
	}{
		{"thread listed twice", "broken back-link", func(m *Machine, svc, batch *Process) {
			svc.tail.next = svc.head.next // the walk meets the second thread again
		}},
		{"broken back-link", "broken back-link", func(m *Machine, svc, batch *Process) {
			svc.head.next.prev = nil
		}},
		{"two threads out of ID order", "out of ID order", func(m *Machine, svc, batch *Process) {
			a, b := svc.head, svc.head.next // relink as b, a, ...
			a.next, a.prev, b.next, b.prev = b.next, b, a, nil
			a.next.prev, svc.head = a, b
		}},
		{"done thread still linked", "done thread", func(m *Machine, svc, batch *Process) {
			svc.tail.State = StateDone
		}},
		{"thread listed by two processes", "misfiled", func(m *Machine, svc, batch *Process) {
			batch.tail.next = svc.tail
		}},
		{"tail behind the last thread", "tail", func(m *Machine, svc, batch *Process) {
			svc.tail = svc.tail.prev
		}},
		{"parked thread missing from its parked list", "3 parked threads", func(m *Machine, svc, batch *Process) {
			batch.parked = batch.parked[:2]
		}},
		{"parked thread listed twice in place of another", "parked list holds thread", func(m *Machine, svc, batch *Process) {
			batch.parked[2] = batch.parked[0]
		}},
		{"parked list holds an unlisted thread", "parked list holds parked thread", func(m *Machine, svc, batch *Process) {
			f := m.free
			m.free = f.next
			f.State, f.Proc, f.released = StateParked, batch, false
			batch.parked[2] = f
		}},
		{"free-list thread still listed", "still referenced", func(m *Machine, svc, batch *Process) {
			lastFree(m).next = svc.tail
		}},
		{"free-list thread not done", "still referenced", func(m *Machine, svc, batch *Process) {
			m.free.next.State = StateReady
		}},
		{"free-list thread listed twice", "free list holds thread", func(m *Machine, svc, batch *Process) {
			lastFree(m).next = m.free.next
		}},
		{"cyclic free list", "free list holds thread", func(m *Machine, svc, batch *Process) {
			lastFree(m).next = m.free
		}},
		{"core running an unlisted thread", "running threads linked", func(m *Machine, svc, batch *Process) {
			svc.unlink(svc.head)
		}},
		{"core queueing an unlinked thread", "ready threads linked", func(m *Machine, svc, batch *Process) {
			svc.unlink(svc.tail)
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

// TestDeletesClearVacatedSlots: taking a thread out of the middle of a
// run queue (remove) or a parked list (unpark) leaves no pointer in the
// storage past the slice's end, where it would name the struct's next
// incarnation once the thread is released and reused.
func TestDeletesClearVacatedSlots(t *testing.T) {
	_, m := testMachine(1)
	p := m.NewProcess("svc", stats.ClassPrimary)
	batch := m.NewProcess("batch", stats.ClassSecondary)
	m.SetAffinity(batch, 0)
	var queued, parked []*Thread
	m.Spawn(p, Forever, AllCores(1), nil) // runs
	for i := 0; i < 3; i++ {
		queued = append(queued, m.Spawn(p, Forever, AllCores(1), nil))
		parked = append(parked, m.Spawn(batch, Forever, AllCores(1), nil))
	}
	m.Cancel(queued[1]) // remove
	m.Cancel(parked[1]) // unpark
	m.CheckInvariants()
	for _, s := range []struct {
		name string
		got  []*Thread
		want []*Thread
	}{
		{"run queue", m.core[0].queue, []*Thread{queued[0], queued[2]}},
		{"parked list", batch.parked, []*Thread{parked[0], parked[2]}},
	} {
		if !slices.Equal(s.got, s.want) {
			t.Fatalf("%s holds %v threads, want the other two in order", s.name, len(s.got))
		}
		for i, th := range s.got[len(s.got):cap(s.got)] {
			if th != nil {
				t.Fatalf("%s keeps thread %d in vacated slot %d", s.name, th.ID, len(s.got)+i)
			}
		}
	}
}
