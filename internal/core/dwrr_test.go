package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perfiso/internal/diskmodel"
	"perfiso/internal/sim"
)

func hddPolicy() IOVolumeConfig {
	return IOVolumeConfig{
		Volume:       "hdd",
		PollInterval: 50 * sim.Millisecond,
		Window:       5,
		Procs: []IOProcConfig{
			// heavy has a low guaranteed floor, so flooding far beyond it
			// builds positive deficit; light's floor is high enough that
			// its entitlement is its weighted demand share.
			{Proc: "heavy", Weight: 1, MinIOPS: 30},
			{Proc: "light", Weight: 3, MinIOPS: 100000},
		},
	}
}

// startIOLoad issues a closed-loop stream of 8 KB ops from proc onto vol
// with the given concurrency.
func startIOLoad(vol *diskmodel.Volume, proc string, depth int) {
	var issue func()
	issue = func() {
		vol.Submit(&diskmodel.Request{
			Proc:       proc,
			Kind:       diskmodel.OpWrite,
			Bytes:      8 << 10,
			Sequential: true,
			OnComplete: issue,
		})
	}
	for i := 0; i < depth; i++ {
		issue()
	}
}

func TestIOThrottlerUnknownVolumePanics(t *testing.T) {
	n := newTestNode(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown volume")
		}
	}()
	NewIOThrottler(n.os, IOVolumeConfig{Volume: "nope"})
}

func TestIOThrottlerAppliesStaticCaps(t *testing.T) {
	n := newTestNode(t)
	cfg := hddPolicy()
	cfg.Procs[0].BytesPerSec = 1 << 20 // 1 MB/s on "heavy"
	tr := NewIOThrottler(n.os, cfg)
	tr.Start()
	startIOLoad(n.hdd, "heavy", 8)
	n.runFor(5 * sim.Second)
	st := n.hdd.Stats("heavy")
	gotRate := float64(st.Bytes) / 5
	if gotRate > 1.3*(1<<20) {
		t.Fatalf("heavy throughput = %.0f B/s, want <= ~1 MB/s cap", gotRate)
	}
	if gotRate < 0.5*(1<<20) {
		t.Fatalf("heavy throughput = %.0f B/s; cap starved the stream", gotRate)
	}
}

func TestIOThrottlerDemotesHog(t *testing.T) {
	n := newTestNode(t)
	tr := NewIOThrottler(n.os, hddPolicy())
	tr.Start()
	// "heavy" floods the volume; "light" issues a trickle. heavy's
	// measured IOPS run far above its weighted demand (weight 1 of 4),
	// so it must be demoted below base priority; light stays at or above.
	startIOLoad(n.hdd, "heavy", 16)
	startIOLoad(n.hdd, "light", 1)
	n.runFor(3 * sim.Second)
	if got := tr.Priority("heavy"); got >= baseIOPriority {
		t.Fatalf("heavy priority = %d, want demoted below %d (deficit %.2f)",
			got, baseIOPriority, tr.Deficit("heavy"))
	}
	if got := tr.Priority("light"); got < baseIOPriority {
		t.Fatalf("light priority = %d, want >= base %d", got, baseIOPriority)
	}
	if tr.Adjustments == 0 {
		t.Fatal("no priority adjustments recorded")
	}
	if tr.Deficit("heavy") <= 0 {
		t.Fatalf("heavy deficit = %.2f, want positive (over entitlement)", tr.Deficit("heavy"))
	}
}

func TestIOThrottlerPriorityDriftsBackToBase(t *testing.T) {
	n := newTestNode(t)
	tr := NewIOThrottler(n.os, hddPolicy())
	tr.Start()
	startIOLoad(n.hdd, "heavy", 16)
	n.runFor(3 * sim.Second)
	if tr.Priority("heavy") >= baseIOPriority {
		t.Fatalf("precondition: heavy not demoted (prio %d)", tr.Priority("heavy"))
	}
	// The volume quiesces once the in-flight closed loop is cut off by
	// the experiment ending; emulate by waiting with no new submissions:
	// stop issuing by killing the rate — here we simply stop the load by
	// letting a rate cap of ~zero choke it.
	n.hdd.SetRateLimit("heavy", 1, 0.0001)
	n.runFor(5 * sim.Second)
	if got := tr.Priority("heavy"); got < baseIOPriority-1 {
		t.Fatalf("heavy priority = %d after load removed, want drift toward base %d", got, baseIOPriority)
	}
}

func TestIOThrottlerSnapshotSorted(t *testing.T) {
	n := newTestNode(t)
	tr := NewIOThrottler(n.os, hddPolicy())
	tr.Start()
	startIOLoad(n.hdd, "heavy", 4)
	startIOLoad(n.hdd, "light", 4)
	n.runFor(1 * sim.Second)
	snap := tr.Snapshot()
	if len(snap) != 2 || snap[0].Proc != "heavy" || snap[1].Proc != "light" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestIOThrottlerUnknownProcQueries(t *testing.T) {
	n := newTestNode(t)
	tr := NewIOThrottler(n.os, hddPolicy())
	if tr.Deficit("ghost") != 0 || tr.Demand("ghost") != 0 {
		t.Fatal("unknown proc returned nonzero statistics")
	}
	if tr.Priority("ghost") != baseIOPriority {
		t.Fatal("unknown proc priority not base")
	}
}

func TestIOThrottlerStopHaltsSampling(t *testing.T) {
	n := newTestNode(t)
	tr := NewIOThrottler(n.os, hddPolicy())
	tr.Start()
	startIOLoad(n.hdd, "heavy", 4)
	n.runFor(1 * sim.Second)
	tr.Stop()
	samples := tr.Samples
	n.runFor(1 * sim.Second)
	if tr.Samples != samples {
		t.Fatalf("samples advanced after Stop: %d -> %d", samples, tr.Samples)
	}
}

// TestDWRRPriorityBoundsProperty: whatever IOPS history the sampler
// observes, assigned priorities stay within [min, max] and weights never
// produce NaN deficits.
func TestDWRRPriorityBoundsProperty(t *testing.T) {
	check := func(seed uint64, depthA, depthB uint8) bool {
		n := newTestNode(t)
		tr := NewIOThrottler(n.os, hddPolicy())
		tr.Start()
		rng := sim.NewRNG(seed)
		startIOLoad(n.hdd, "heavy", int(depthA%20)+1)
		startIOLoad(n.hdd, "light", int(depthB%20)+1)
		for i := 0; i < 10; i++ {
			n.runFor(sim.Duration(rng.IntBetween(20, 200)) * sim.Millisecond)
			for _, proc := range []string{"heavy", "light"} {
				prio := tr.Priority(proc)
				if prio < minIOPriority || prio > maxIOPriority {
					t.Logf("priority %d out of bounds for %s", prio, proc)
					return false
				}
				d := tr.Deficit(proc)
				if d != d { // NaN
					t.Logf("NaN deficit for %s", proc)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestDWRRDemandFormulaWeights checks the weighted-demand split: with
// both processes saturating, demand apportions drive IOPS by weight
// (3:1 here), matching D_i = Σ w_i·curr / Σ w_j.
func TestDWRRDemandFormulaWeights(t *testing.T) {
	n := newTestNode(t)
	cfg := hddPolicy()
	cfg.Procs[0].MinIOPS = 0 // disable limits; pure demand
	cfg.Procs[1].MinIOPS = 0
	tr := NewIOThrottler(n.os, cfg)
	tr.Start()
	startIOLoad(n.hdd, "heavy", 8)
	startIOLoad(n.hdd, "light", 8)
	n.runFor(3 * sim.Second)
	dh, dl := tr.Demand("heavy"), tr.Demand("light")
	if dh <= 0 || dl <= 0 {
		t.Fatalf("demands not computed: heavy=%.1f light=%.1f", dh, dl)
	}
	ratio := dl / dh
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("demand ratio light/heavy = %.2f, want ≈ weight ratio 3", ratio)
	}
}
