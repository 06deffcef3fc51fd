package core

import (
	"testing"
	"testing/quick"

	"perfiso/internal/cpumodel"
	"perfiso/internal/sim"
)

func newBlindFixture(t *testing.T, buffer int) (*testNode, *BlindIsolation, *cpumodel.Process) {
	t.Helper()
	n := newTestNode(t)
	job := n.os.CreateJob("secondary")
	bully := n.startBully(48)
	job.Assign(bully.Proc)
	cfg := DefaultConfig()
	cfg.BufferCores = buffer
	b := NewBlindIsolation(n.os, job, cfg)
	b.Start(cfg.PollInterval)
	return n, b, bully.Proc
}

func TestBlindStartsFromZeroGrant(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	// Immediately after Start, before any polls observe idleness, the
	// secondary must own nothing: a freshly isolated machine is safe.
	if got := b.Allocated(); got != 0 {
		t.Fatalf("initial allocation = %d, want 0", got)
	}
	if got := b.job.Affinity().Count(); got != 0 {
		t.Fatalf("initial job affinity = %d cores, want 0", got)
	}
	_ = n
}

func TestBlindGrowsToCoresMinusBuffer(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	n.runFor(2 * sim.Second)
	if got, want := b.Allocated(), 40; got != want {
		t.Fatalf("steady-state allocation = %d, want %d", got, want)
	}
	if idle := n.os.IdleCores(); idle != 8 {
		t.Fatalf("idle cores = %d, want exactly the buffer (8)", idle)
	}
	n.cpu.CheckInvariants()
}

func TestBlindGrowRateLimitedByHoldoff(t *testing.T) {
	n := newTestNode(t)
	job := n.os.CreateJob("secondary")
	bully := n.startBully(48)
	job.Assign(bully.Proc)
	cfg := DefaultConfig()
	cfg.BufferCores = 8
	cfg.GrowHoldoff = 10 * sim.Millisecond
	b := NewBlindIsolation(n.os, job, cfg)
	b.Start(cfg.PollInterval)
	// After 100 ms with a 10 ms holdoff, at most ~10 grows can have
	// happened (plus the initial apply).
	n.runFor(100 * sim.Millisecond)
	if got := b.Allocated(); got > 11 {
		t.Fatalf("allocation after 100ms = %d; grow rate exceeds 1 core/10ms", got)
	}
	if got := b.Allocated(); got < 8 {
		t.Fatalf("allocation after 100ms = %d; grows are being lost", got)
	}
	// The polls between grows found spare idleness and were held back:
	// each poll grows, defers or neither, never both.
	if b.Deferrals == 0 {
		t.Fatal("no holdoff deferrals recorded")
	}
	if b.Grows+b.Deferrals > b.Polls {
		t.Fatalf("grows %d + deferrals %d exceed polls %d", b.Grows, b.Deferrals, b.Polls)
	}
}

func TestBlindShrinksImmediatelyOnBurst(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	primary := n.newPrimary("indexserve")
	n.runFor(2 * sim.Second)
	if b.Allocated() != 40 {
		t.Fatalf("precondition: allocation = %d, want 40", b.Allocated())
	}

	// Wake 16 primary threads: they eat the 8 buffer cores and queue.
	// Within a few polls the governor must shed cores to restore B.
	n.spawnPrimaryBurst(primary, 16, 200*sim.Millisecond)
	n.runFor(5 * sim.Millisecond) // 50 polls at the 100µs default
	if got := b.Allocated(); got > 34 {
		t.Fatalf("allocation = %d a few polls after a 16-thread burst; shrink too slow", got)
	}
	if b.Shrinks == 0 {
		t.Fatal("no shrinks recorded")
	}
	n.cpu.CheckInvariants()
}

func TestBlindRecoversAfterBurstEnds(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	primary := n.newPrimary("indexserve")
	n.runFor(1 * sim.Second)
	n.spawnPrimaryBurst(primary, 20, 50*sim.Millisecond)
	n.runFor(100 * sim.Millisecond)
	low := b.Allocated()
	// Primary work done: the governor should re-grow to 40.
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 40 {
		t.Fatalf("allocation = %d after burst ended, want 40 (was %d during burst)", got, low)
	}
}

func TestBlindSheddingFullDeficitAtOnce(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	primary := n.newPrimary("indexserve")
	n.runFor(2 * sim.Second)
	before := b.Allocated()
	shrinksBefore := b.Shrinks

	// A 24-thread wakeup leaves idle = 0 on the next poll (16 waiters
	// beyond the buffer): the deficit B - I = 8 must be shed in ONE
	// update, not 8 separate single-core steps.
	n.spawnPrimaryBurst(primary, 24, 300*sim.Millisecond)
	n.runFor(300 * sim.Microsecond) // ~3 polls
	dropped := before - b.Allocated()
	newShrinks := b.Shrinks - shrinksBefore
	if dropped < 6 {
		t.Fatalf("only %d cores shed shortly after the burst; want >= 6", dropped)
	}
	if newShrinks > 4 {
		t.Fatalf("%d shrink updates for a single burst; deficit should be shed in few updates", newShrinks)
	}
}

func TestBlindDisableReleasesEverything(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	n.runFor(1 * sim.Second)
	b.Disable()
	if b.Enabled() {
		t.Fatal("Enabled() true after Disable")
	}
	n.runFor(1 * sim.Second)
	if got := b.job.Affinity().Count(); got != 48 {
		t.Fatalf("job affinity = %d cores under kill switch, want 48", got)
	}
	if idle := n.os.IdleCores(); idle != 0 {
		t.Fatalf("idle cores = %d under kill switch with a 48-thread bully, want 0", idle)
	}
}

func TestBlindEnableRestartsFromZero(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	n.runFor(1 * sim.Second)
	b.Disable()
	n.runFor(100 * sim.Millisecond)
	b.Enable()
	if got := b.Allocated(); got != 0 {
		t.Fatalf("allocation immediately after Enable = %d, want 0", got)
	}
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 40 {
		t.Fatalf("allocation after re-enable settling = %d, want 40", got)
	}
}

func TestBlindSetBufferTakesEffect(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	n.runFor(2 * sim.Second)
	b.SetBuffer(16)
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 32 {
		t.Fatalf("allocation = %d after SetBuffer(16), want 32", got)
	}
	if idle := n.os.IdleCores(); idle != 16 {
		t.Fatalf("idle = %d after SetBuffer(16), want 16", idle)
	}
}

// TestBlindSetBufferRaiseShedsImmediately covers the over-budget-grant
// regression: raising the buffer lowers the secondary limit, and an
// allocation above the new limit must be shed by the SetBuffer call
// itself — not parked until an unrelated shrink. The 20-thread bully
// keeps 28 cores idle, so after the raise the poll loop sees
// idle > buffer and would never enter its shrink path on its own.
func TestBlindSetBufferRaiseShedsImmediately(t *testing.T) {
	n := newTestNode(t)
	job := n.os.CreateJob("secondary")
	bully := n.startBully(20)
	job.Assign(bully.Proc)
	cfg := DefaultConfig()
	cfg.BufferCores = 8
	b := NewBlindIsolation(n.os, job, cfg)
	b.Start(cfg.PollInterval)
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 40 {
		t.Fatalf("precondition: allocation = %d, want 40", got)
	}
	b.SetBuffer(22)
	if got := b.Allocated(); got != 26 {
		t.Fatalf("allocation = %d immediately after SetBuffer(22), want 26 (48-22)", got)
	}
	n.runFor(10 * sim.Millisecond)
	if got := b.Allocated(); got != 26 {
		t.Fatalf("allocation = %d shortly after SetBuffer(22), want 26", got)
	}
	n.cpu.CheckInvariants()
}

// TestBlindSetBufferLowerRestoresHeadroom covers the one-way-clamp
// regression: a raise used to shrink maxSec permanently, so a
// subsequent lower never gave the freed cores back to the secondary.
func TestBlindSetBufferLowerRestoresHeadroom(t *testing.T) {
	n, b, _ := newBlindFixture(t, 16)
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 32 {
		t.Fatalf("precondition: allocation = %d with buffer 16, want 32", got)
	}
	b.SetBuffer(8)
	// The raised limit is live on the very next poll: with 16 cores
	// idle against the new 8-core buffer, the first grow lands within
	// one holdoff period instead of never.
	n.runFor(2 * sim.Millisecond)
	if got := b.Allocated(); got <= 32 {
		t.Fatalf("allocation = %d two holdoffs after lowering the buffer; headroom still clamped", got)
	}
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 40 {
		t.Fatalf("allocation = %d after lowering the buffer to 8, want 40", got)
	}
	if idle := n.os.IdleCores(); idle != 8 {
		t.Fatalf("idle = %d after lowering the buffer to 8, want 8", idle)
	}
	n.cpu.CheckInvariants()
}

// TestBlindSetBufferRespectsConfiguredMax checks the recomputed limit
// still honors MaxSecondaryCores through raise/lower cycles.
func TestBlindSetBufferRespectsConfiguredMax(t *testing.T) {
	n := newTestNode(t)
	job := n.os.CreateJob("secondary")
	bully := n.startBully(48)
	job.Assign(bully.Proc)
	cfg := DefaultConfig()
	cfg.BufferCores = 8
	cfg.MaxSecondaryCores = 20
	b := NewBlindIsolation(n.os, job, cfg)
	b.Start(cfg.PollInterval)
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 20 {
		t.Fatalf("allocation = %d under cap 20, want 20", got)
	}
	// Raising and lowering the buffer must not unlock the configured cap.
	b.SetBuffer(40)
	if got := b.Allocated(); got != 8 {
		t.Fatalf("allocation = %d after SetBuffer(40), want 8 (48-40)", got)
	}
	b.SetBuffer(4)
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 20 {
		t.Fatalf("allocation = %d after lowering back below the cap, want 20", got)
	}
}

// TestBlindDisableReconcilesBookkeeping covers the stale-grant
// regression: under the kill switch the job owns the whole machine, so
// Allocated() and the allocation series must say so rather than
// repeating the last isolated grant.
func TestBlindDisableReconcilesBookkeeping(t *testing.T) {
	n := newTestNode(t)
	job := n.os.CreateJob("secondary")
	bully := n.startBully(48)
	job.Assign(bully.Proc)
	cfg := DefaultConfig()
	b := NewBlindIsolation(n.os, job, cfg)
	b.RecordAllocation(100)
	b.Start(cfg.PollInterval)
	n.runFor(1 * sim.Second)
	if got := b.Allocated(); got != 40 {
		t.Fatalf("precondition: allocation = %d, want 40", got)
	}

	grows := b.Grows
	b.Disable()
	if got := b.Allocated(); got != 48 {
		t.Fatalf("Allocated() = %d under kill switch, want 48 (full machine)", got)
	}
	if b.Grows != grows+1 {
		t.Fatalf("Disable's affinity update not counted: grows %d -> %d", grows, b.Grows)
	}
	n.runFor(100 * sim.Millisecond)
	if got := b.AllocSeries.Max(); got != 48 {
		t.Fatalf("allocation series max = %.0f while disabled, want 48", got)
	}

	shrinks := b.Shrinks
	b.Enable()
	if got := b.Allocated(); got != 0 {
		t.Fatalf("Allocated() = %d immediately after Enable, want 0", got)
	}
	if b.Shrinks != shrinks+1 {
		t.Fatalf("Enable's affinity update not counted: shrinks %d -> %d", shrinks, b.Shrinks)
	}
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 40 {
		t.Fatalf("allocation = %d after re-enable settling, want 40", got)
	}
}

func TestBlindMaxSecondaryCoresCap(t *testing.T) {
	n := newTestNode(t)
	job := n.os.CreateJob("secondary")
	bully := n.startBully(48)
	job.Assign(bully.Proc)
	cfg := DefaultConfig()
	cfg.BufferCores = 8
	cfg.MaxSecondaryCores = 10
	b := NewBlindIsolation(n.os, job, cfg)
	b.Start(cfg.PollInterval)
	n.runFor(2 * sim.Second)
	if got := b.Allocated(); got != 10 {
		t.Fatalf("allocation = %d with a cap of 10, want 10", got)
	}
}

func TestBlindPollsCheapUpdatesRare(t *testing.T) {
	// §4.1: polling runs in a tight loop but updates happen on demand.
	// In steady state the update count must be a tiny fraction of polls.
	n, b, _ := newBlindFixture(t, 8)
	n.runFor(5 * sim.Second)
	updates := b.Shrinks + b.Grows
	if b.Polls < 10000 {
		t.Fatalf("polls = %d over 5s at 100µs, want tens of thousands", b.Polls)
	}
	if frac := float64(updates) / float64(b.Polls); frac > 0.01 {
		t.Fatalf("updates/polls = %.4f; updates should be rare in steady state", frac)
	}
}

func TestBlindAllocationSeries(t *testing.T) {
	n := newTestNode(t)
	job := n.os.CreateJob("secondary")
	bully := n.startBully(48)
	job.Assign(bully.Proc)
	cfg := DefaultConfig()
	b := NewBlindIsolation(n.os, job, cfg)
	b.RecordAllocation(100)
	b.Start(cfg.PollInterval)
	n.runFor(1 * sim.Second)
	if b.AllocSeries.Len() == 0 {
		t.Fatal("no allocation samples recorded")
	}
	if b.AllocSeries.Max() > 40 {
		t.Fatalf("allocation series max = %.0f, beyond cores-buffer", b.AllocSeries.Max())
	}
}

func TestBlindSecondaryPackedOnTopCores(t *testing.T) {
	n, b, _ := newBlindFixture(t, 8)
	n.runFor(2 * sim.Second)
	aff := b.job.Affinity()
	// S=40 on 48 cores packed high: cores 8..47.
	for c := 0; c < 8; c++ {
		if aff.Has(c) {
			t.Fatalf("secondary granted low core %d; mask %v", c, aff)
		}
	}
	for c := 8; c < 48; c++ {
		if !aff.Has(c) {
			t.Fatalf("secondary missing core %d; mask %v", c, aff)
		}
	}
}

// TestBlindControlLawProperty drives the governor with arbitrary
// idle-core observations and checks the §3.1.2 control law directly:
// I < B never grows S, I > B never shrinks S, and S stays in
// [0, cores-B].
func TestBlindControlLawProperty(t *testing.T) {
	check := func(seed uint64, buffer uint8, steps uint8) bool {
		b := int(buffer%16) + 1
		n := newTestNode(t)
		job := n.os.CreateJob("secondary")
		bully := n.startBully(48)
		job.Assign(bully.Proc)
		primary := n.newPrimary("indexserve")
		cfg := DefaultConfig()
		cfg.BufferCores = b
		gov := NewBlindIsolation(n.os, job, cfg)
		gov.Start(cfg.PollInterval)
		rng := sim.NewRNG(seed)
		for i := 0; i < int(steps%40)+5; i++ {
			// Random primary activity between settle periods.
			k := rng.Intn(30)
			n.spawnPrimaryBurst(primary, k, sim.Duration(rng.IntBetween(1, 40))*sim.Millisecond)
			before := gov.Allocated()
			idleBefore := n.os.IdleCores()
			gov.Poll()
			after := gov.Allocated()
			switch {
			case idleBefore < b && after > before:
				t.Logf("grew with idle(%d) < buffer(%d)", idleBefore, b)
				return false
			case idleBefore > b && after < before:
				t.Logf("shrank with idle(%d) > buffer(%d)", idleBefore, b)
				return false
			case idleBefore == b && after != before:
				t.Logf("changed S with idle == buffer")
				return false
			}
			if after < 0 || after > 48-b {
				t.Logf("S=%d outside [0,%d]", after, 48-b)
				return false
			}
			n.runFor(sim.Duration(rng.IntBetween(1, 20)) * sim.Millisecond)
		}
		n.cpu.CheckInvariants()
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
