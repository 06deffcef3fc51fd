package indexserve

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"perfiso/internal/simtrace"

	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

func newServer(t *testing.T) (*sim.Engine, *cpumodel.Machine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(3), cpumodel.DefaultConfig())
	s := New(m, DefaultConfig(), nil, nil)
	return eng, m, s
}

// replay pushes a synthetic trace through the server and runs to
// completion of all arrivals plus a drain period.
func replay(eng *sim.Engine, s *Server, queries int, rate float64, seed uint64) {
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: queries, Rate: rate, Seed: seed})
	client := workload.NewClient(eng, func(q workload.QuerySpec) { s.Submit(q) })
	client.Replay(trace)
	end := trace[len(trace)-1].Arrival.Add(sim.Duration(2) * sim.Second)
	eng.Run(end)
}

func TestStandaloneCalibration(t *testing.T) {
	// §6.1.1: standalone P50 ≈ 4 ms and P99 ≈ 12 ms at both 2k and
	// 4k QPS. Shape bands, not exact values.
	for _, qps := range []float64{2000, 4000} {
		eng, m, s := newServer(t)
		replay(eng, s, 20000, qps, 42)
		p50 := sim.Duration(s.Latency.P50()).Milliseconds()
		p99 := sim.Duration(s.Latency.P99()).Milliseconds()
		if p50 < 2.5 || p50 > 6 {
			t.Errorf("qps=%v: standalone P50 = %.2f ms, want ≈4 ms", qps, p50)
		}
		if p99 < 8 || p99 > 16 {
			t.Errorf("qps=%v: standalone P99 = %.2f ms, want ≈12 ms", qps, p99)
		}
		if s.DropRate() > 0.001 {
			t.Errorf("qps=%v: standalone drop rate = %.4f, want ~0", qps, s.DropRate())
		}
		m.CheckInvariants()
	}
}

func TestStandaloneCPUUtilization(t *testing.T) {
	// §6.1.1: CPU idle ≈80% at 2k QPS and ≈60% at 4k QPS.
	for _, c := range []struct {
		qps            float64
		idleLo, idleHi float64
	}{
		{2000, 65, 90},
		{4000, 45, 75},
	} {
		eng, m, s := newServer(t)
		replay(eng, s, 20000, c.qps, 7)
		idle := m.Breakdown().IdlePct
		if idle < c.idleLo || idle > c.idleHi {
			t.Errorf("qps=%v: idle = %.1f%%, want in [%v,%v]", c.qps, idle, c.idleLo, c.idleHi)
		}
		_ = s
	}
}

func TestBurstSignature(t *testing.T) {
	// §2.1: up to 15 worker threads become ready within 5 µs of a
	// query's submission.
	eng, m, s := newServer(t)
	maxBurst := 0
	// Measure how many threads each query wakes within the 5 µs burst
	// window: the live count right after the window minus the count at
	// submission (which may include a previous query's long matcher).
	for i := 0; i < 200; i++ {
		at := sim.Time(i+1) * sim.Time(10*sim.Millisecond)
		q := workload.QuerySpec{ID: i, Seed: uint64(i) * 977}
		var before int
		eng.At(at, func() {
			before = s.Proc.LiveThreads()
			s.Submit(q)
		})
		eng.At(at.Add(s.Config().BurstSpread), func() {
			if d := s.Proc.LiveThreads() - before; d > maxBurst {
				maxBurst = d
			}
		})
	}
	eng.Run(sim.Time(3 * sim.Second))
	if maxBurst < 10 || maxBurst > 15 {
		t.Fatalf("max workers woken within the burst window = %d, want 10..15", maxBurst)
	}
	m.CheckInvariants()
}

func TestDeadlineDrops(t *testing.T) {
	// A query that cannot finish (all cores hogged by an unrestricted
	// 48-thread bully plus massive primary queueing) is dropped at the
	// deadline with latency capped there.
	eng, m, s := newServer(t)
	bully := workload.NewCPUBully(m, "bully", 48)
	bully.Start()
	replay(eng, s, 3000, 4000, 13)
	if s.Dropped == 0 {
		t.Fatal("no drops under a 48-thread bully at peak load")
	}
	maxMS := sim.Duration(s.Latency.Max()).Milliseconds()
	deadlineMS := s.Config().Deadline.Milliseconds()
	if maxMS > deadlineMS*1.05 {
		t.Fatalf("max recorded latency %.1f ms exceeds the %v ms deadline cap", maxMS, deadlineMS)
	}
}

func TestInFlightDrainsToZero(t *testing.T) {
	eng, _, s := newServer(t)
	replay(eng, s, 2000, 2000, 5)
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in flight = %d after drain, want 0", got)
	}
	if s.Completed+s.Dropped != 2000 {
		t.Fatalf("completed+dropped = %d, want 2000", s.Completed+s.Dropped)
	}
}

func TestQueryDemandReproducible(t *testing.T) {
	// The same QuerySpec seed must produce identical latency on two
	// identical machines — the property that makes cross-policy
	// comparisons paired rather than noisy.
	run := func() float64 {
		eng := sim.NewEngine()
		m := cpumodel.New(eng, sim.NewRNG(3), cpumodel.DefaultConfig())
		s := New(m, DefaultConfig(), nil, nil)
		replay(eng, s, 5000, 2000, 99)
		return s.Latency.P99()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs differ: %v vs %v", a, b)
	}
}

func TestSpeculativeWorkersRaisePrimaryCPU(t *testing.T) {
	// Fig. 4b: under interference the primary's own CPU share rises as
	// it compensates with extra speculative workers. Compare primary CPU
	// time with speculation on vs off under a mid bully.
	// Lower the checkpoint so most queries compensate while the machine
	// stays un-congested (the in-flight cap disables speculation under
	// overload by design; TestSpeculationCapUnderOverload covers that).
	runWith := func(workers int) sim.Duration {
		eng := sim.NewEngine()
		m := cpumodel.New(eng, sim.NewRNG(3), cpumodel.DefaultConfig())
		cfg := DefaultConfig()
		cfg.SpecCheckpoint = 1 * sim.Millisecond
		cfg.SpecWorkers = workers
		s := New(m, cfg, nil, nil)
		replay(eng, s, 5000, 2000, 31)
		return s.Proc.CPUTime()
	}
	with, without := runWith(3), runWith(0)
	if float64(with) < 1.15*float64(without) {
		t.Fatalf("speculation did not raise primary CPU: with=%v without=%v", with, without)
	}
}

func TestSpeculationCapUnderOverload(t *testing.T) {
	// With the whole machine hogged, in-flight counts blow past the cap
	// and compensation must stand down rather than cascade.
	run := func(cap int) sim.Duration {
		eng := sim.NewEngine()
		m := cpumodel.New(eng, sim.NewRNG(3), cpumodel.DefaultConfig())
		cfg := DefaultConfig()
		cfg.SpecInFlightCap = cap
		s := New(m, cfg, nil, nil)
		bully := workload.NewCPUBully(m, "bully", 48)
		bully.Start()
		replay(eng, s, 4000, 4000, 31)
		return s.Proc.CPUTime()
	}
	capped, uncapped := run(64), run(0)
	if float64(capped) >= float64(uncapped) {
		t.Fatalf("in-flight cap did not shed speculative load: capped=%v uncapped=%v", capped, uncapped)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(1), cpumodel.DefaultConfig())
	bad := DefaultConfig()
	bad.WorkersMin = 0
	mustPanic(t, func() { New(m, bad, nil, nil) })
	bad2 := DefaultConfig()
	bad2.WorkersMax = 2
	bad2.WorkersMin = 5
	mustPanic(t, func() { New(m, bad2, nil, nil) })
	bad3 := DefaultConfig()
	bad3.Deadline = 0
	mustPanic(t, func() { New(m, bad3, nil, nil) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestOnResponseObserved(t *testing.T) {
	eng, _, s := newServer(t)
	var responses int
	var dropped int
	s.OnResponse = func(r Response) {
		responses++
		if r.Dropped {
			dropped++
		}
		if r.Latency <= 0 {
			t.Errorf("response %d has non-positive latency %v", r.ID, r.Latency)
		}
	}
	replay(eng, s, 1000, 2000, 77)
	if responses != 1000 {
		t.Fatalf("observed %d responses, want 1000", responses)
	}
	if uint64(dropped) != s.Dropped {
		t.Fatalf("observer drop count %d != server %d", dropped, s.Dropped)
	}
}

// TestLatencyConservationProperty: for any short trace, every submitted
// query is eventually either completed or dropped, never both, never
// lost — across random seeds and loads.
func TestLatencyConservationProperty(t *testing.T) {
	check := func(seed uint64, loadSel uint8) bool {
		rate := []float64{500, 2000, 4000, 8000}[loadSel%4]
		eng := sim.NewEngine()
		m := cpumodel.New(eng, sim.NewRNG(seed^0xabc), cpumodel.DefaultConfig())
		s := New(m, DefaultConfig(), nil, nil)
		if threads := int(seed % 49); seed%3 == 0 && threads > 0 {
			b := workload.NewCPUBully(m, "bully", threads)
			b.Start()
		}
		replay(eng, s, 800, rate, seed)
		if s.Completed+s.Dropped != 800 {
			t.Logf("seed=%d rate=%v: completed=%d dropped=%d", seed, rate, s.Completed, s.Dropped)
			return false
		}
		if s.InFlight() != 0 {
			return false
		}
		if s.Latency.Count() != 800 {
			return false
		}
		m.CheckInvariants()
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimaryClassAccounting(t *testing.T) {
	eng, m, s := newServer(t)
	replay(eng, s, 5000, 2000, 21)
	b := m.Breakdown()
	if b.PrimaryPct <= 0 {
		t.Fatalf("primary CPU pct = %.2f, want > 0", b.PrimaryPct)
	}
	if b.SecondaryPct != 0 {
		t.Fatalf("secondary CPU pct = %.2f with no secondary, want 0", b.SecondaryPct)
	}
	total := b.PrimaryPct + b.SecondaryPct + b.OSPct + b.IdlePct
	if total < 99.5 || total > 100.5 {
		t.Fatalf("breakdown sums to %.2f%%, want 100%%", total)
	}
}

// TestForensicRecordsPartitionLatency checks the tail-forensics
// contract: every finished query yields exactly one record whose named
// causes plus residual reconstruct the latency exactly, with no
// negative component.
func TestForensicRecordsPartitionLatency(t *testing.T) {
	eng, m, s := newServer(t)
	var recs []simtrace.QueryRecord
	s.OnRecord = func(r simtrace.QueryRecord) { recs = append(recs, r) }
	replay(eng, s, 5000, 4000, 7)
	if want := int(s.Completed + s.Dropped); len(recs) != want {
		t.Fatalf("%d records for %d finished queries", len(recs), want)
	}
	for _, r := range recs {
		sum := r.Attributed() + r.Other
		if sum != r.Latency {
			t.Fatalf("query %d: components sum to %v, latency %v", r.ID, sum, r.Latency)
		}
		for _, c := range simtrace.Causes {
			if r.Cause(c) < 0 {
				t.Fatalf("query %d: negative %s component %v", r.ID, c, r.Cause(c))
			}
		}
	}
	m.CheckInvariants()
}

// TestSimTraceQuerySpans checks that with a tracer attached every
// finished query opens and closes exactly one async span, and the
// emitted Chrome JSON validates.
func TestSimTraceQuerySpans(t *testing.T) {
	eng, m, s := newServer(t)
	tr := simtrace.New()
	m.SetSimTracer(tr)
	s.SetSimTracer(tr)
	replay(eng, s, 2000, 4000, 11)
	finished := int(s.Completed + s.Dropped)
	begins := map[int]int{}
	ends := map[int]int{}
	for _, e := range tr.Events() {
		if e.Name != "query" {
			continue
		}
		switch e.Kind {
		case simtrace.KindBegin:
			begins[e.ID]++
		case simtrace.KindEnd:
			ends[e.ID]++
		}
	}
	if len(ends) != finished {
		t.Fatalf("%d ended spans for %d finished queries", len(ends), finished)
	}
	for id, n := range ends {
		if n != 1 {
			t.Fatalf("query %d ended %d times", id, n)
		}
		if begins[id] != 1 {
			t.Fatalf("query %d began %d times", id, begins[id])
		}
	}
	var buf bytes.Buffer
	if err := simtrace.WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := simtrace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
}

// TestDeadlineDropsWithQueuedReads drops queries at the deadline while
// their index reads still wait on a slow SSD. Each record must stay out
// of the pool until its last read completes — recycled earlier, the
// read's completion would start a matcher for whichever query held the
// record next. Every query responds exactly once, the forensic
// partition holds, and once the engine drains every record is back in
// the pool with no reference outstanding.
func TestDeadlineDropsWithQueuedReads(t *testing.T) {
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(3), cpumodel.DefaultConfig())
	ssd := diskmodel.NewVolume(eng, diskmodel.VolumeConfig{
		Name:              "slow-ssd",
		Drives:            1,
		SeekTime:          2 * sim.Millisecond,
		PerDriveBandwidth: 450e6,
	})
	cfg := DefaultConfig()
	cfg.CacheMissProb = 1
	cfg.Deadline = 5 * sim.Millisecond
	s := New(m, cfg, ssd, nil)
	responses := map[int]int{}
	s.OnResponse = func(r Response) { responses[r.ID]++ }
	var recs []simtrace.QueryRecord
	s.OnRecord = func(r simtrace.QueryRecord) { recs = append(recs, r) }

	const queries = 300
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: queries, Rate: 2000, Seed: 5})
	workload.NewClient(eng, s.Submit).Replay(trace)
	eng.Run(trace[queries-1].Arrival.Add(cfg.Deadline))
	if held := s.records - len(s.free) - s.InFlight(); held == 0 {
		t.Fatal("no finished query's record waits on a queued read; the case went untested")
	}
	eng.RunAll()

	if s.Dropped == 0 || s.Completed+s.Dropped != queries {
		t.Fatalf("completed %d, dropped %d of %d queries; want every query finished, some dropped", s.Completed, s.Dropped, queries)
	}
	for _, q := range trace {
		if n := responses[q.ID]; n != 1 {
			t.Fatalf("query %d responded %d times", q.ID, n)
		}
	}
	if len(recs) != queries {
		t.Fatalf("%d forensic records for %d queries", len(recs), queries)
	}
	for _, r := range recs {
		if r.Attributed()+r.Other != r.Latency {
			t.Fatalf("query %d: components sum to %v, latency %v", r.ID, r.Attributed()+r.Other, r.Latency)
		}
		for _, c := range simtrace.Causes {
			if r.Cause(c) < 0 {
				t.Fatalf("query %d: negative %s component %v", r.ID, c, r.Cause(c))
			}
		}
	}
	if len(s.free) != s.records {
		t.Fatalf("%d of %d query records back in the pool after draining", len(s.free), s.records)
	}
	for _, q := range s.free {
		if q.refs != 0 || !q.done {
			t.Fatalf("pooled record has refs=%d done=%v", q.refs, q.done)
		}
	}
	m.CheckInvariants()
}
