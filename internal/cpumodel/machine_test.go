package cpumodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

func testMachine(cores int) (*sim.Engine, *Machine) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Cores = cores
	m := New(eng, sim.NewRNG(1), cfg)
	return eng, m
}

func TestSingleBurstRunsToCompletion(t *testing.T) {
	eng, m := testMachine(4)
	p := m.NewProcess("svc", stats.ClassPrimary)
	done := false
	m.Spawn(p, 3*sim.Millisecond, AllCores(4), func() { done = true })
	eng.RunAll()
	if !done {
		t.Fatal("burst did not complete")
	}
	if eng.Now() != sim.Time(3*sim.Millisecond) {
		t.Fatalf("completed at %v, want 3ms", eng.Now())
	}
	if got := p.CPUTime(); got != 3*sim.Millisecond {
		t.Fatalf("cpu time = %v, want 3ms", got)
	}
	m.CheckInvariants()
}

func TestIdleMaskTracksRunning(t *testing.T) {
	eng, m := testMachine(4)
	p := m.NewProcess("svc", stats.ClassPrimary)
	if m.IdleCount() != 4 {
		t.Fatalf("fresh machine idle = %d", m.IdleCount())
	}
	m.Spawn(p, 10*sim.Millisecond, AllCores(4), nil)
	m.Spawn(p, 10*sim.Millisecond, AllCores(4), nil)
	if m.IdleCount() != 2 {
		t.Fatalf("idle = %d with 2 running, want 2", m.IdleCount())
	}
	eng.Run(sim.Time(5 * sim.Millisecond))
	if m.IdleCount() != 2 {
		t.Fatalf("idle = %d mid-run, want 2", m.IdleCount())
	}
	eng.RunAll()
	if m.IdleCount() != 4 {
		t.Fatalf("idle = %d after completion, want 4", m.IdleCount())
	}
	m.CheckInvariants()
}

func TestParallelBurstsUseAllCores(t *testing.T) {
	eng, m := testMachine(8)
	p := m.NewProcess("svc", stats.ClassPrimary)
	finished := 0
	for i := 0; i < 8; i++ {
		m.Spawn(p, 2*sim.Millisecond, AllCores(8), func() { finished++ })
	}
	eng.RunAll()
	if finished != 8 {
		t.Fatalf("finished = %d, want 8", finished)
	}
	// All 8 ran in parallel: wall time is one burst.
	if eng.Now() != sim.Time(2*sim.Millisecond) {
		t.Fatalf("wall time = %v, want 2ms", eng.Now())
	}
}

func TestQueueingWhenOversubscribed(t *testing.T) {
	eng, m := testMachine(2)
	p := m.NewProcess("svc", stats.ClassPrimary)
	var doneAt []sim.Time
	for i := 0; i < 4; i++ {
		m.Spawn(p, 10*sim.Millisecond, AllCores(2), func() {
			doneAt = append(doneAt, eng.Now())
		})
	}
	if m.QueuedThreads() != 2 {
		t.Fatalf("queued = %d, want 2", m.QueuedThreads())
	}
	eng.RunAll()
	if len(doneAt) != 4 {
		t.Fatalf("finished = %d", len(doneAt))
	}
	// Two waves: completions at 10ms and 20ms.
	if doneAt[1] != sim.Time(10*sim.Millisecond) || doneAt[3] != sim.Time(20*sim.Millisecond) {
		t.Fatalf("completion times = %v", doneAt)
	}
	m.CheckInvariants()
}

func TestQuantumRoundRobin(t *testing.T) {
	eng, m := testMachine(1)
	cfg := DefaultConfig()
	_ = cfg
	p := m.NewProcess("svc", stats.ClassPrimary)
	q := m.Quantum()
	// Two threads needing 1.5 quanta each share one core round-robin.
	var first, second sim.Time
	m.Spawn(p, q+q/2, AllCores(1), func() { first = eng.Now() })
	m.Spawn(p, q+q/2, AllCores(1), func() { second = eng.Now() })
	eng.RunAll()
	// Schedule: A runs q, B runs q, A runs q/2 (done at 2.5q), B q/2 (3q).
	if first != sim.Time(2*q+q/2) {
		t.Fatalf("first done at %v, want %v", first, sim.Time(2*q+q/2))
	}
	if second != sim.Time(3*q) {
		t.Fatalf("second done at %v, want %v", second, sim.Time(3*q))
	}
}

func TestIdleCorePullsQueuedWork(t *testing.T) {
	eng, m := testMachine(2)
	bully := m.NewProcess("bully", stats.ClassSecondary)
	svc := m.NewProcess("svc", stats.ClassPrimary)
	// Bully occupies core picked by ideal spread; fill both cores.
	m.Spawn(bully, Forever, AllCores(2), nil)
	m.Spawn(bully, Forever, AllCores(2), nil)
	// A queued service burst...
	var doneAt sim.Time
	m.Spawn(svc, sim.Millisecond, AllCores(2), func() { doneAt = eng.Now() })
	if m.QueuedThreads() != 1 {
		t.Fatalf("queued = %d, want 1", m.QueuedThreads())
	}
	// ...must wait for a quantum expiry, then run.
	eng.Run(sim.Time(m.Quantum() + 2*sim.Millisecond))
	if doneAt == 0 {
		t.Fatal("queued burst never ran")
	}
	if doneAt != sim.Time(m.Quantum()+sim.Millisecond) {
		t.Fatalf("queued burst done at %v, want quantum+1ms", doneAt)
	}
	m.CheckInvariants()
}

func TestAffinityRestrictsPlacement(t *testing.T) {
	eng, m := testMachine(4)
	p := m.NewProcess("svc", stats.ClassSecondary)
	m.SetAffinity(p, CPUSet(0).With(2).With(3))
	for i := 0; i < 4; i++ {
		m.Spawn(p, 10*sim.Millisecond, AllCores(4), nil)
	}
	// Only cores 2,3 may run them: two run, two queue.
	if m.IdleCount() != 2 {
		t.Fatalf("idle = %d, want 2 (cores 0,1 must stay idle)", m.IdleCount())
	}
	if !m.IdleMask().Has(0) || !m.IdleMask().Has(1) {
		t.Fatalf("idle mask = %v, want cores 0,1 idle", m.IdleMask())
	}
	eng.RunAll()
	if eng.Now() != sim.Time(20*sim.Millisecond) {
		t.Fatalf("wall = %v, want 20ms (serialized on 2 cores)", eng.Now())
	}
	m.CheckInvariants()
}

func TestAffinityShrinkEvictsImmediately(t *testing.T) {
	eng, m := testMachine(4)
	bully := m.NewProcess("bully", stats.ClassSecondary)
	for i := 0; i < 4; i++ {
		m.Spawn(bully, Forever, AllCores(4), nil)
	}
	if m.IdleCount() != 0 {
		t.Fatal("setup: bully should fill the machine")
	}
	eng.Run(sim.Time(sim.Millisecond))
	// Shrink to the top 2 cores: the 2 evicted threads re-queue there.
	m.SetAffinity(bully, TopCores(4, 2))
	if m.IdleCount() != 2 {
		t.Fatalf("idle after shrink = %d, want 2", m.IdleCount())
	}
	if !m.IdleMask().Has(0) || !m.IdleMask().Has(1) {
		t.Fatalf("idle mask = %v, want 0,1", m.IdleMask())
	}
	if m.QueuedThreads() != 2 {
		t.Fatalf("queued = %d, want 2 evicted threads", m.QueuedThreads())
	}
	m.CheckInvariants()
	// Widening back lets queued threads spread out again via pulls at
	// the next scheduling points; immediately after widening an idle core
	// can still pull.
	m.SetAffinity(bully, AllCores(4))
	eng.Run(eng.Now().Add(m.Quantum() * 2))
	if m.IdleCount() != 0 {
		t.Fatalf("idle after widen = %d, want 0", m.IdleCount())
	}
	m.CheckInvariants()
}

func TestSchedulerNeverViolatesAffinity(t *testing.T) {
	// Stress: random spawns and affinity flips; invariants (including
	// "no thread runs outside its effective affinity") must hold at
	// every check.
	eng, m := testMachine(8)
	r := sim.NewRNG(99)
	procs := []*Process{
		m.NewProcess("p1", stats.ClassPrimary),
		m.NewProcess("p2", stats.ClassSecondary),
	}
	for step := 0; step < 400; step++ {
		eng.After(sim.Duration(step)*100*sim.Microsecond, func() {
			p := procs[r.Intn(2)]
			switch r.Intn(3) {
			case 0:
				m.Spawn(p, sim.Duration(r.IntBetween(1, 500))*sim.Microsecond, AllCores(8), nil)
			case 1:
				mask := CPUSet(r.Uint64()) & AllCores(8)
				m.SetAffinity(p, mask)
			case 2:
				m.CheckInvariants()
			}
		})
	}
	eng.RunAll()
	m.CheckInvariants()
}

func TestKillRemovesAllThreads(t *testing.T) {
	eng, m := testMachine(4)
	p := m.NewProcess("bully", stats.ClassSecondary)
	for i := 0; i < 8; i++ {
		m.Spawn(p, Forever, AllCores(4), nil)
	}
	eng.Run(sim.Time(sim.Millisecond))
	m.Kill(p)
	if p.LiveThreads() != 0 {
		t.Fatalf("live threads = %d after kill", p.LiveThreads())
	}
	if m.IdleCount() != 4 {
		t.Fatalf("idle = %d after kill, want 4", m.IdleCount())
	}
	m.CheckInvariants()
}

func TestAccountingConservation(t *testing.T) {
	eng, m := testMachine(4)
	p1 := m.NewProcess("svc", stats.ClassPrimary)
	p2 := m.NewProcess("bully", stats.ClassSecondary)
	r := sim.NewRNG(7)
	for i := 0; i < 200; i++ {
		at := sim.Time(r.IntBetween(0, 50)) * sim.Time(sim.Millisecond)
		eng.At(at, func() {
			m.Spawn(p1, sim.Duration(r.IntBetween(100, 3000))*sim.Microsecond, AllCores(4), nil)
		})
	}
	m.Spawn(p2, Forever, AllCores(4), nil)
	eng.Run(sim.Time(60 * sim.Millisecond))
	acct := m.Accounting()
	total := acct.Total()
	capacity := acct.Capacity(eng.Now())
	if total != capacity {
		t.Fatalf("accounting leak: Σclasses=%v capacity=%v", total, capacity)
	}
	if acct.Class(stats.ClassPrimary) == 0 || acct.Class(stats.ClassSecondary) == 0 {
		t.Fatal("expected both classes to accumulate time")
	}
	m.CheckInvariants()
}

func TestCycleCapFreezesProcess(t *testing.T) {
	eng, m := testMachine(4)
	bully := m.NewProcess("bully", stats.ClassSecondary)
	window := 100 * sim.Millisecond
	m.SetCycleCap(bully, 0.25, window)
	for i := 0; i < 4; i++ {
		m.Spawn(bully, Forever, AllCores(4), nil)
	}
	// Budget = 0.25 * 4 cores * 100ms = 100 core-ms; with 4 threads
	// running, exhausted after ~25ms of wall time.
	eng.Run(sim.Time(30 * sim.Millisecond))
	if !bully.Frozen() {
		t.Fatal("bully not frozen after budget exhaustion")
	}
	if m.IdleCount() != 4 {
		t.Fatalf("idle = %d while frozen, want 4", m.IdleCount())
	}
	// At the window boundary it thaws.
	eng.Run(sim.Time(101 * sim.Millisecond))
	if bully.Frozen() {
		t.Fatal("bully still frozen after window reset")
	}
	if m.IdleCount() != 0 {
		t.Fatalf("idle = %d after thaw, want 0", m.IdleCount())
	}
	// Long-run usage approaches the cap.
	eng.Run(sim.Time(2 * sim.Second))
	use := float64(bully.CPUTime()) / float64(m.Accounting().Capacity(eng.Now()))
	if use < 0.20 || use > 0.30 {
		t.Fatalf("capped usage = %.3f, want ~0.25", use)
	}
	m.CheckInvariants()
}

func TestCycleCapDisable(t *testing.T) {
	eng, m := testMachine(2)
	bully := m.NewProcess("bully", stats.ClassSecondary)
	m.SetCycleCap(bully, 0.10, 50*sim.Millisecond)
	m.Spawn(bully, Forever, AllCores(2), nil)
	m.Spawn(bully, Forever, AllCores(2), nil)
	eng.Run(sim.Time(20 * sim.Millisecond))
	if !bully.Frozen() {
		t.Fatal("not frozen under 10% cap")
	}
	m.SetCycleCap(bully, 0, 0)
	if bully.Frozen() {
		t.Fatal("still frozen after disabling the cap")
	}
	eng.Run(sim.Time(40 * sim.Millisecond))
	if m.IdleCount() != 0 {
		t.Fatalf("idle = %d, want 0 after cap removal", m.IdleCount())
	}
	m.CheckInvariants()
}

func TestBreakdownSharesSum(t *testing.T) {
	eng, m := testMachine(4)
	p := m.NewProcess("svc", stats.ClassPrimary)
	m.Spawn(p, 10*sim.Millisecond, AllCores(4), nil)
	eng.Run(sim.Time(20 * sim.Millisecond))
	b := m.Breakdown()
	sum := b.UsedPct() + b.IdlePct
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("breakdown sums to %.2f%%", sum)
	}
	// 1 core busy for 10 of 20ms on a 4-core box = 12.5%.
	if b.PrimaryPct < 12.4 || b.PrimaryPct > 12.6 {
		t.Fatalf("primary = %.2f%%, want 12.5%%", b.PrimaryPct)
	}
}

func TestSpawnInvalidBurstPanics(t *testing.T) {
	_, m := testMachine(1)
	p := m.NewProcess("x", stats.ClassPrimary)
	defer func() {
		if recover() == nil {
			t.Fatal("zero burst did not panic")
		}
	}()
	m.Spawn(p, 0, AllCores(1), nil)
}

func TestEmptyAffinityParksThreads(t *testing.T) {
	eng, m := testMachine(2)
	p := m.NewProcess("bully", stats.ClassSecondary)
	m.SetAffinity(p, 0)
	m.Spawn(p, sim.Millisecond, AllCores(2), nil)
	eng.Run(sim.Time(10 * sim.Millisecond))
	if p.LiveThreads() != 1 {
		t.Fatal("thread should stay parked, not run or vanish")
	}
	if m.IdleCount() != 2 {
		t.Fatal("parked thread must not occupy a core")
	}
	// Restoring affinity releases it.
	m.SetAffinity(p, AllCores(2))
	eng.RunAll()
	if p.LiveThreads() != 0 {
		t.Fatal("thread did not run after unparking")
	}
	m.CheckInvariants()
}

func TestThreadStateString(t *testing.T) {
	for s, want := range map[ThreadState]string{
		StateReady: "ready", StateRunning: "running",
		StateParked: "parked", StateDone: "done",
	} {
		if s.String() != want {
			t.Fatalf("%d = %q", s, s.String())
		}
	}
}

func TestDelayedEvictionHonorsLatency(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.EvictionLatency = 2 * sim.Millisecond
	m := New(eng, sim.NewRNG(1), cfg)
	p := m.NewProcess("batch", stats.ClassSecondary)
	for i := 0; i < 8; i++ {
		m.Spawn(p, Forever, AllCores(48), nil)
	}
	eng.Run(sim.Time(10 * sim.Millisecond))
	if got := 48 - m.IdleCount(); got != 8 {
		t.Fatalf("busy cores = %d, want 8", got)
	}

	// Shrink to zero cores: with delayed eviction the threads keep
	// running for up to the latency, then park.
	m.SetAffinity(p, 0)
	eng.Run(sim.Time(10*sim.Millisecond + 500*sim.Microsecond))
	if m.IdleCount() == 48 {
		t.Fatal("threads evicted before the eviction latency elapsed")
	}
	eng.Run(sim.Time(13 * sim.Millisecond))
	if got := m.IdleCount(); got != 48 {
		t.Fatalf("idle cores = %d after eviction latency, want 48", got)
	}
	m.CheckInvariants()
}

func TestDelayedEvictionCancelledByRestore(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.EvictionLatency = 5 * sim.Millisecond
	m := New(eng, sim.NewRNG(1), cfg)
	p := m.NewProcess("batch", stats.ClassSecondary)
	m.Spawn(p, Forever, AllCores(48), nil)
	eng.Run(sim.Time(1 * sim.Millisecond))
	m.SetAffinity(p, 0)
	eng.Run(sim.Time(2 * sim.Millisecond))
	// Affinity restored before the eviction fires: the thread must
	// keep running undisturbed.
	m.SetAffinity(p, AllCores(48))
	eng.Run(sim.Time(20 * sim.Millisecond))
	if m.IdleCount() != 47 {
		t.Fatalf("idle = %d; the restored thread should still run", m.IdleCount())
	}
}

func TestImmediateEvictionDefault(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, sim.NewRNG(1), DefaultConfig())
	p := m.NewProcess("batch", stats.ClassSecondary)
	for i := 0; i < 4; i++ {
		m.Spawn(p, Forever, AllCores(48), nil)
	}
	eng.Run(sim.Time(1 * sim.Millisecond))
	m.SetAffinity(p, 0)
	// Same event: all parked instantly.
	if m.IdleCount() != 48 {
		t.Fatalf("idle = %d immediately after shrink, want 48", m.IdleCount())
	}
}

func TestWakeBoostOrdersQueue(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.Cores = 1
	m := New(eng, sim.NewRNG(1), cfg)
	batch := m.NewProcess("batch", stats.ClassSecondary)
	prim := m.NewProcess("svc", stats.ClassPrimary)

	// Occupy the core, then queue batch-before-primary; the primary
	// must still run first thanks to the wake boost.
	m.Spawn(batch, Forever, AllCores(1), nil)
	var order []string
	eng.At(sim.Time(1*sim.Millisecond), func() {
		m.Spawn(batch, 1*sim.Millisecond, AllCores(1), func() { order = append(order, "batch") })
		m.Spawn(prim, 1*sim.Millisecond, AllCores(1), func() { order = append(order, "primary") })
	})
	eng.Run(sim.Time(2 * sim.Second))
	if len(order) != 2 || order[0] != "primary" {
		t.Fatalf("completion order = %v, want primary first", order)
	}
}

func TestCPUTimeConservationProperty(t *testing.T) {
	// Σ class time (incl. idle) must equal cores × elapsed regardless
	// of the workload thrown at the machine.
	check := func(seed uint64, ops uint8) bool {
		eng := sim.NewEngine()
		m := New(eng, sim.NewRNG(seed), DefaultConfig())
		rng := sim.NewRNG(seed ^ 0xfeed)
		procs := []*Process{
			m.NewProcess("a", stats.ClassPrimary),
			m.NewProcess("b", stats.ClassSecondary),
			m.NewProcess("c", stats.ClassOS),
		}
		for i := 0; i < int(ops%30)+5; i++ {
			p := procs[rng.Intn(len(procs))]
			switch rng.Intn(4) {
			case 0:
				m.Spawn(p, sim.Duration(rng.IntBetween(1, 50))*sim.Millisecond, AllCores(48), nil)
			case 1:
				m.SetAffinity(p, TopCores(48, rng.IntBetween(0, 48)))
			case 2:
				m.SetCycleCap(p, rng.Float64()*0.5, 100*sim.Millisecond)
			case 3:
				eng.Run(eng.Now().Add(sim.Duration(rng.IntBetween(1, 30)) * sim.Millisecond))
			}
		}
		eng.Run(eng.Now().Add(50 * sim.Millisecond))
		acct := m.Accounting()
		total := acct.Total()
		capacity := acct.Capacity(eng.Now())
		diff := total - capacity
		if diff < 0 {
			diff = -diff
		}
		if diff > sim.Duration(len(m.core)) { // 1 ns per core of rounding
			t.Logf("seed=%d: Σclass=%v capacity=%v", seed, total, capacity)
			return false
		}
		m.CheckInvariants()
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
