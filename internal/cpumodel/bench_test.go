package cpumodel

import (
	"testing"

	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// BenchmarkSpawnDispatchIdle measures the wake→dispatch hot path with
// idle cores available — the common case of every query burst.
func BenchmarkSpawnDispatchIdle(b *testing.B) {
	eng := sim.NewEngine()
	m := New(eng, sim.NewRNG(1), DefaultConfig())
	p := m.NewProcess("svc", stats.ClassPrimary)
	all := AllCores(48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Spawn(p, sim.Microsecond, all, nil)
		for eng.Step() {
		}
	}
}

// BenchmarkSpawnCompleteRelease measures a primary burst's full cycle
// on an idle machine — spawn, dispatch, completion, OnDone, release —
// the per-matcher path of every query once its owner recycles threads.
func BenchmarkSpawnCompleteRelease(b *testing.B) {
	eng := sim.NewEngine()
	m := New(eng, sim.NewRNG(1), DefaultConfig())
	p := m.NewProcess("svc", stats.ClassPrimary)
	all := AllCores(48)
	done := false
	onDone := func() { done = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		th := m.Spawn(p, sim.Microsecond, all, onDone)
		for !done && eng.Step() {
		}
		m.Release(th)
	}
}

// BenchmarkSpawnEnqueueSaturated measures wake→enqueue with every core
// busy — the contended path of the no-isolation experiments.
func BenchmarkSpawnEnqueueSaturated(b *testing.B) {
	eng := sim.NewEngine()
	m := New(eng, sim.NewRNG(1), DefaultConfig())
	hog := m.NewProcess("hog", stats.ClassSecondary)
	for i := 0; i < 48; i++ {
		m.Spawn(hog, Forever, AllCores(48), nil)
	}
	eng.Run(sim.Time(sim.Millisecond))
	p := m.NewProcess("svc", stats.ClassPrimary)
	all := AllCores(48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := m.Spawn(p, sim.Microsecond, all, nil)
		m.Cancel(t)
	}
}

// BenchmarkSetAffinityShrink measures the blind-isolation actuator: a
// full-width affinity change over a process with many live threads.
// The engine runs 1 ms past each flip, so the quantum expiries a flip
// cancels or arms come due and leave the lane; without it the lane and
// the engine's slot pool grow for the whole run.
func BenchmarkSetAffinityShrink(b *testing.B) {
	eng := sim.NewEngine()
	m := New(eng, sim.NewRNG(1), DefaultConfig())
	p := m.NewProcess("batch", stats.ClassSecondary)
	for i := 0; i < 48; i++ {
		m.Spawn(p, Forever, AllCores(48), nil)
	}
	eng.Run(sim.Time(sim.Millisecond))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.SetAffinity(p, TopCores(48, 8))
		} else {
			m.SetAffinity(p, AllCores(48))
		}
		eng.Run(eng.Now().Add(sim.Millisecond))
	}
}

// BenchmarkIdleMaskQuery measures the §3.1.1 monitoring primitive — it
// must be nearly free since the controller calls it every poll.
func BenchmarkIdleMaskQuery(b *testing.B) {
	eng := sim.NewEngine()
	m := New(eng, sim.NewRNG(1), DefaultConfig())
	var acc int
	for i := 0; i < b.N; i++ {
		acc += m.IdleCount()
	}
	_ = acc
}

// BenchmarkIdleStealFutile measures a primary burst completing on a
// buffer core while a saturated 48-thread bully, confined to the other
// 40 cores, has threads queued there: the freed core's steal attempt
// can find nothing it may run. This is the idle-core path blind
// isolation exercises on nearly every primary completion.
func BenchmarkIdleStealFutile(b *testing.B) {
	eng := sim.NewEngine()
	m := New(eng, sim.NewRNG(1), DefaultConfig())
	bully := m.NewProcess("bully", stats.ClassSecondary)
	m.SetAffinity(bully, TopCores(48, 40))
	for i := 0; i < 48; i++ {
		m.Spawn(bully, Forever, AllCores(48), nil)
	}
	eng.Run(sim.Time(sim.Millisecond))
	p := m.NewProcess("svc", stats.ClassPrimary)
	buffer := AllCores(8)
	done := false
	onDone := func() { done = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		m.Spawn(p, sim.Microsecond, buffer, onDone)
		for !done && eng.Step() {
		}
	}
	b.StopTimer()
	if m.QueuedThreads() != 8 {
		b.Fatalf("%d threads queued, want the bully's 8", m.QueuedThreads())
	}
}

// BenchmarkSaturatedMachine measures the overload path of Fig. 4's
// unrestricted bully: 48 cores under a 48-thread bully while 250
// primary bursts churn, each completion spawning the next, so 250
// threads always wait in the run queues. One op is one primary
// completion and its replacement spawn, with the dispatches,
// quantum expiries and steals around them.
func BenchmarkSaturatedMachine(b *testing.B) {
	const primaries = 250
	eng := sim.NewEngine()
	m := New(eng, sim.NewRNG(1), DefaultConfig())
	all := AllCores(48)
	bully := m.NewProcess("bully", stats.ClassSecondary)
	for i := 0; i < 48; i++ {
		m.Spawn(bully, Forever, all, nil)
	}
	p := m.NewProcess("svc", stats.ClassPrimary)
	rng := sim.NewRNG(2)
	completed := 0
	var respawn func()
	respawn = func() {
		completed++
		m.SpawnDetached(p, sim.Duration(rng.IntBetween(20, 500))*sim.Microsecond, all, respawn)
	}
	for i := 0; i < primaries; i++ {
		m.SpawnDetached(p, sim.Duration(rng.IntBetween(20, 500))*sim.Microsecond, all, respawn)
	}
	eng.Run(sim.Time(sim.Second)) // past a quantum, so the bully has been requeued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for done := completed; completed == done && eng.Step(); {
		}
	}
	b.StopTimer()
	if q := m.QueuedThreads(); q != primaries {
		b.Fatalf("%d threads queued, want %d", q, primaries)
	}
}
