package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"perfiso/internal/sim"
)

func testBatchConfig() BatchTraceConfig {
	return BatchTraceConfig{
		Tasks:        2000,
		Rate:         100,
		BurstMean:    5,
		MeanCPU:      2 * sim.Second,
		TailAlpha:    1.6,
		DiskFraction: 0.25,
		MeanOps:      1000,
		Seed:         2017,
	}
}

func TestGenerateBatchTraceShape(t *testing.T) {
	trace := GenerateBatchTrace(testBatchConfig())
	st := BatchTraceStats(trace)
	if st.Tasks != 2000 {
		t.Fatalf("tasks = %d", st.Tasks)
	}
	if st.MeanRate < 80 || st.MeanRate > 120 {
		t.Fatalf("mean rate = %.1f tasks/s, want ≈100", st.MeanRate)
	}
	// A quarter of tasks disk-bound, within loose binomial bounds.
	if st.DiskTasks < 400 || st.DiskTasks > 600 {
		t.Fatalf("disk tasks = %d of 2000, want ≈500", st.DiskTasks)
	}
	// Heavy tail: the max draw of 1500 Pareto(α=1.6) tasks should be
	// far above the mean (the synthetic sweep's constant demand is the
	// contrast this generator exists for).
	if st.MaxCPU < 5*st.MeanCPU {
		t.Fatalf("max CPU %.2fs < 5× mean %.2fs; demand not heavy-tailed",
			st.MaxCPU.Seconds(), st.MeanCPU.Seconds())
	}
	if st.MaxCPU > testBatchConfig().MeanCPU*maxCPUFactor {
		t.Fatalf("max CPU %v beyond the outlier bound", st.MaxCPU)
	}
	// Mean demand within a factor of the configured mean (the bound
	// trims the Pareto mean slightly).
	if mean := st.MeanCPU.Seconds(); mean < 1.0 || mean > 3.0 {
		t.Fatalf("mean CPU = %.2fs, want ≈2s", mean)
	}
	// Submits are non-decreasing and every task demands something.
	for i, task := range trace {
		if i > 0 && task.Submit < trace[i-1].Submit {
			t.Fatalf("task %d submit %v before previous", i, task.Submit)
		}
		if task.CPU <= 0 && task.DiskOps <= 0 {
			t.Fatalf("task %d demands nothing: %+v", i, task)
		}
		if task.CPU > 0 && task.DiskOps > 0 {
			t.Fatalf("task %d is both CPU- and disk-bound: %+v", i, task)
		}
	}
}

func TestGenerateBatchTraceBursty(t *testing.T) {
	trace := GenerateBatchTrace(testBatchConfig())
	// With a mean burst of 5, a large fraction of consecutive tasks
	// share their submit instant.
	same := 0
	for i := 1; i < len(trace); i++ {
		if trace[i].Submit == trace[i-1].Submit {
			same++
		}
	}
	if frac := float64(same) / float64(len(trace)-1); frac < 0.5 {
		t.Fatalf("only %.0f%% of consecutive submits coincide; bursts missing", 100*frac)
	}
}

func TestGenerateBatchTraceDeterminismAndEdges(t *testing.T) {
	a := GenerateBatchTrace(testBatchConfig())
	b := GenerateBatchTrace(testBatchConfig())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if got := GenerateBatchTrace(BatchTraceConfig{Tasks: 0, Rate: 1}); got != nil {
		t.Fatalf("zero-task trace = %v", got)
	}
	for name, cfg := range map[string]BatchTraceConfig{
		"zero rate":    {Tasks: 1, Rate: 0, MeanCPU: sim.Second},
		"zero cpu":     {Tasks: 1, Rate: 1},
		"disk no ops":  {Tasks: 1, Rate: 1, MeanCPU: sim.Second, DiskFraction: 0.5},
		"neg fraction": {Tasks: 1, Rate: 1, DiskFraction: 1.5, MeanOps: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			GenerateBatchTrace(cfg)
		}()
	}
}

func TestBatchTraceRoundTrip(t *testing.T) {
	trace := GenerateBatchTrace(testBatchConfig())
	var buf bytes.Buffer
	if err := WriteBatchTrace(&buf, trace); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadBatchTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(back) != len(trace) {
		t.Fatalf("length %d != %d", len(back), len(trace))
	}
	for i := range trace {
		if back[i] != trace[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], trace[i])
		}
	}
}

func TestBatchTraceRejectsGarbage(t *testing.T) {
	valid := func(mutate func([]byte) []byte) []byte {
		var buf bytes.Buffer
		if err := WriteBatchTrace(&buf, []BatchTaskSpec{{Submit: 10, CPU: sim.Second}}); err != nil {
			t.Fatal(err)
		}
		return mutate(buf.Bytes())
	}
	cases := map[string][]byte{
		"bad magic":  []byte("XXXX" + strings.Repeat("\x00", 12)),
		"pitr magic": []byte("PITR" + strings.Repeat("\x00", 12)),
		"bad version": valid(func(b []byte) []byte {
			b[4] = 9
			return b
		}),
		"truncated header": valid(func(b []byte) []byte { return b[:10] }),
		"truncated record": valid(func(b []byte) []byte { return b[:len(b)-3] }),
		"zero demand": valid(func(b []byte) []byte {
			for i := 24; i < 36; i++ {
				b[i] = 0 // cpu and ops both zero
			}
			return b
		}),
		"huge count": append([]byte("PIBT\x01\x00\x00\x00"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, data := range cases {
		if _, err := ReadBatchTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBatchTraceRejectsNonMonotonic(t *testing.T) {
	trace := []BatchTaskSpec{
		{ID: 0, Submit: sim.Time(100), CPU: sim.Second},
		{ID: 1, Submit: sim.Time(50), CPU: sim.Second},
	}
	if err := WriteBatchTrace(&bytes.Buffer{}, trace); err == nil {
		t.Fatal("writer accepted non-monotonic submits")
	}
	// The reader must reject the same stream even when it arrives from
	// elsewhere: write a sorted trace, then swap the two records'
	// submit fields in the encoded bytes.
	var buf bytes.Buffer
	if err := WriteBatchTrace(&buf, []BatchTaskSpec{
		{ID: 0, Submit: sim.Time(50), CPU: sim.Second},
		{ID: 1, Submit: sim.Time(100), CPU: sim.Second},
	}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const header, record = 16, 20
	for i := 0; i < 8; i++ {
		data[header+i], data[header+record+i] = data[header+record+i], data[header+i]
	}
	if _, err := ReadBatchTrace(bytes.NewReader(data)); err == nil {
		t.Fatal("non-monotonic batch trace accepted")
	}
}

func TestWriteBatchTraceRejectsBadRecords(t *testing.T) {
	for name, trace := range map[string][]BatchTaskSpec{
		"negative cpu": {{Submit: 1, CPU: -sim.Second}},
		"negative ops": {{Submit: 1, DiskOps: -1}},
		"huge ops":     {{Submit: 1, DiskOps: 1 << 40}},
		"zero demand":  {{Submit: 1}},
	} {
		if err := WriteBatchTrace(&bytes.Buffer{}, trace); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTraceFormatsRoundTripProperty is the shared round-trip property
// over both record versions: arbitrary seeded PITR query traces and
// PIBT batch traces must survive write→read bit-exactly.
func TestTraceFormatsRoundTripProperty(t *testing.T) {
	check := func(seed uint64, n uint16, rate uint16, burst uint8) bool {
		count := int(n%500) + 1
		queries := GenerateTrace(TraceConfig{
			Queries: count,
			Rate:    float64(rate%5000) + 1,
			Seed:    seed,
		})
		var qbuf bytes.Buffer
		if err := WriteTrace(&qbuf, queries); err != nil {
			return false
		}
		qback, err := ReadTrace(&qbuf)
		if err != nil || len(qback) != len(queries) {
			return false
		}
		for i := range queries {
			if qback[i] != queries[i] {
				return false
			}
		}

		batch := GenerateBatchTrace(BatchTraceConfig{
			Tasks:        count,
			Rate:         float64(rate%200) + 1,
			BurstMean:    float64(burst % 8),
			MeanCPU:      sim.Second,
			TailAlpha:    1 + float64(seed%20)/10, // sweeps exponential and Pareto
			DiskFraction: float64(seed%4) / 4,
			MeanOps:      int(rate%1000) + 1,
			Seed:         seed,
		})
		var bbuf bytes.Buffer
		if err := WriteBatchTrace(&bbuf, batch); err != nil {
			return false
		}
		bback, err := ReadBatchTrace(&bbuf)
		if err != nil || len(bback) != len(batch) {
			return false
		}
		for i := range batch {
			if bback[i] != batch[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
