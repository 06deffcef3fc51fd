package workload

import (
	"math"
	"testing"

	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

func TestGenerateTraceRate(t *testing.T) {
	trace := GenerateTrace(TraceConfig{Queries: 20000, Rate: 2000, Seed: 1})
	if len(trace) != 20000 {
		t.Fatalf("trace length = %d", len(trace))
	}
	// Mean arrival rate ≈ 2000 QPS.
	span := trace[len(trace)-1].Arrival.Seconds()
	rate := float64(len(trace)) / span
	if math.Abs(rate-2000)/2000 > 0.05 {
		t.Fatalf("empirical rate = %.1f, want ~2000", rate)
	}
	// Arrivals strictly ordered, IDs sequential.
	for i := 1; i < len(trace); i++ {
		if trace[i].Arrival < trace[i-1].Arrival {
			t.Fatal("arrivals not monotonic")
		}
		if trace[i].ID != i {
			t.Fatal("IDs not sequential")
		}
	}
}

func TestGenerateTraceDeterminism(t *testing.T) {
	a := GenerateTrace(TraceConfig{Queries: 100, Rate: 1000, Seed: 7})
	b := GenerateTrace(TraceConfig{Queries: 100, Rate: 1000, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c := GenerateTrace(TraceConfig{Queries: 100, Rate: 1000, Seed: 8})
	if a[0] == c[0] {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestGenerateCurvedTraceLatePeak covers the endpoint regression: a
// curve peaking in the final fraction of the span used to be thinned
// against a peak estimate whose scan (`s < duration` with accumulated
// float steps) never sampled the endpoint, silently capping the
// generated rate at the underestimate. The curve here sits at 100 QPS
// and ramps to 2,000 QPS over the last 0.05 s of a 60 s span —
// entirely inside the window the old scan skipped (its last sample
// for a 60 s span lands at 59.94 s).
func TestGenerateCurvedTraceLatePeak(t *testing.T) {
	const span = 60.0
	rate := func(s float64) float64 {
		if s <= span-0.05 {
			return 100
		}
		return 100 + 1900*(s-(span-0.05))/0.05
	}
	trace := GenerateCurvedTrace(60*sim.Second, rate, 2017)

	// Expected arrivals in the final 0.05 s: ∫rate ≈ 52.5. The old
	// peak-of-100 underestimate could generate at most ~5 there.
	tail := 0
	for _, q := range trace {
		if q.Arrival.Seconds() > span-0.05 {
			tail++
		}
	}
	if tail < 25 {
		t.Fatalf("%d arrivals in the final 0.05s, want ≈52 (late peak thinned away)", tail)
	}
	// The flat 100-QPS body must still be ≈100 QPS — the higher peak
	// thins harder but the accepted rate must not change.
	body := 0
	for _, q := range trace {
		if q.Arrival.Seconds() <= 30 {
			body++
		}
	}
	if bodyRate := float64(body) / 30; bodyRate < 85 || bodyRate > 115 {
		t.Fatalf("body rate = %.1f QPS, want ≈100", bodyRate)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Arrival < trace[i-1].Arrival {
			t.Fatal("arrivals not monotonic")
		}
	}
}

func TestGenerateTraceEdgeCases(t *testing.T) {
	if GenerateTrace(TraceConfig{Queries: 0, Rate: 100}) != nil {
		t.Fatal("empty trace not nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	GenerateTrace(TraceConfig{Queries: 1, Rate: 0})
}

func TestClientReplay(t *testing.T) {
	eng := sim.NewEngine()
	var got []int
	c := NewClient(eng, func(q QuerySpec) { got = append(got, q.ID) })
	trace := GenerateTrace(TraceConfig{Queries: 50, Rate: 5000, Seed: 3})
	c.Replay(trace)
	eng.RunAll()
	if c.Sent != 50 || len(got) != 50 {
		t.Fatalf("sent = %d, delivered = %d", c.Sent, len(got))
	}
	for i, id := range got {
		if id != i {
			t.Fatal("delivery order != arrival order")
		}
	}
}

func TestCPUBullySaturates(t *testing.T) {
	eng := sim.NewEngine()
	cfg := cpumodel.DefaultConfig()
	cfg.Cores = 8
	m := cpumodel.New(eng, sim.NewRNG(1), cfg)
	b := NewCPUBully(m, "bully", 8)
	b.Start()
	eng.Run(sim.Time(sim.Second))
	if m.IdleCount() != 0 {
		t.Fatalf("idle = %d under full-width bully", m.IdleCount())
	}
	// Progress ≈ 8 core-seconds.
	if p := b.Progress(); math.Abs(p-8.0) > 0.01 {
		t.Fatalf("progress = %v core-s, want 8", p)
	}
	if b.Threads() != 8 {
		t.Fatal("thread count wrong")
	}
}

func TestCPUBullyRestrictedProgress(t *testing.T) {
	eng := sim.NewEngine()
	cfg := cpumodel.DefaultConfig()
	cfg.Cores = 8
	m := cpumodel.New(eng, sim.NewRNG(1), cfg)
	b := NewCPUBully(m, "bully", 8)
	b.Start()
	m.SetAffinity(b.Proc, cpumodel.TopCores(8, 2))
	eng.Run(sim.Time(sim.Second))
	if p := b.Progress(); math.Abs(p-2.0) > 0.01 {
		t.Fatalf("restricted progress = %v core-s, want 2", p)
	}
}

func TestDiskBullyMix(t *testing.T) {
	eng := sim.NewEngine()
	vol := diskmodel.NewVolume(eng, diskmodel.HDDStripeConfig())
	cfg := DefaultDiskBullyConfig()
	d := NewDiskBully(vol, cfg)
	d.Start()
	eng.Run(sim.Time(2 * sim.Second))
	d.Stop()
	eng.Run(sim.Time(3 * sim.Second))
	st := vol.Stats(cfg.ProcName)
	if st.Ops < 100 {
		t.Fatalf("disk bully too slow: %d ops", st.Ops)
	}
	readFrac := float64(st.ReadOps) / float64(st.Ops)
	if readFrac < 0.25 || readFrac > 0.41 {
		t.Fatalf("read fraction = %.2f, want ~0.33", readFrac)
	}
	opsAtStop := d.Ops
	eng.Run(sim.Time(4 * sim.Second))
	if d.Ops != opsAtStop {
		t.Fatal("disk bully kept issuing after Stop")
	}
}

func TestDiskBullyRespectsVolumeCap(t *testing.T) {
	eng := sim.NewEngine()
	vol := diskmodel.NewVolume(eng, diskmodel.HDDStripeConfig())
	cfg := DefaultDiskBullyConfig()
	vol.SetRateLimit(cfg.ProcName, 1e6, 0) // 1 MB/s
	d := NewDiskBully(vol, cfg)
	d.Start()
	eng.Run(sim.Time(2 * sim.Second))
	bytes := vol.Stats(cfg.ProcName).Bytes
	if float64(bytes) > 3.2e6 { // 2s × 1MB/s + 1s burst
		t.Fatalf("capped bully moved %d bytes in 2s", bytes)
	}
}

func TestBackgroundCPUHoldsFraction(t *testing.T) {
	eng := sim.NewEngine()
	cfg := cpumodel.DefaultConfig()
	cfg.Cores = 48
	m := cpumodel.New(eng, sim.NewRNG(1), cfg)
	bg := NewBackgroundCPU(m, "os-housekeeping", stats.ClassOS, 0.02)
	bg.Start()
	eng.Run(sim.Time(5 * sim.Second))
	b := m.Breakdown()
	if b.OSPct < 1.5 || b.OSPct > 2.5 {
		t.Fatalf("background OS load = %.2f%%, want ~2%%", b.OSPct)
	}
	bg.Stop()
	mark := m.Accounting().Class(stats.ClassOS)
	eng.Run(sim.Time(6 * sim.Second))
	after := m.Accounting().Class(stats.ClassOS)
	if diff := after - mark; diff > 5*sim.Millisecond {
		t.Fatalf("background kept burning %v after Stop", diff)
	}
}

// TestBackgroundCPUStartIsIdempotent: a second Start on a running load
// must not launch a second volley stream.
func TestBackgroundCPUStartIsIdempotent(t *testing.T) {
	run := func(starts int) sim.Duration {
		eng := sim.NewEngine()
		m := cpumodel.New(eng, sim.NewRNG(1), cpumodel.DefaultConfig())
		bg := NewBackgroundCPU(m, "os-housekeeping", stats.ClassOS, 0.02)
		for i := 0; i < starts; i++ {
			bg.Start()
		}
		eng.Run(sim.Time(3 * sim.Second))
		return bg.Proc.CPUTime()
	}
	if once, twice := run(1), run(2); once != twice {
		t.Fatalf("two Starts burned %v of CPU, one Start %v", twice, once)
	}
}

// TestBackgroundCPURestartAfterStop: Start after Stop resumes exactly
// one stream at the configured fraction, even when it comes within one
// period of the Stop, while the stopped stream's next volley is still
// pending.
func TestBackgroundCPURestartAfterStop(t *testing.T) {
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(1), cpumodel.DefaultConfig())
	bg := NewBackgroundCPU(m, "os-housekeeping", stats.ClassOS, 0.02)
	bg.Start()
	eng.Run(sim.Time(sim.Second))
	bg.Stop()
	eng.Run(sim.Time(sim.Second + bg.Period/4))
	bg.Start()
	eng.Run(sim.Time(2 * sim.Second))
	mark := bg.Proc.CPUTime()
	eng.Run(sim.Time(5 * sim.Second))
	share := (bg.Proc.CPUTime() - mark).Seconds() / (3 * float64(m.Cores()))
	if share < 0.018 || share > 0.022 {
		t.Fatalf("CPU share after a restart = %.4f, want the configured 0.02", share)
	}
}

func TestBackgroundCPUValidation(t *testing.T) {
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(1), cpumodel.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("fraction=0 did not panic")
		}
	}()
	NewBackgroundCPU(m, "x", stats.ClassOS, 0)
}
