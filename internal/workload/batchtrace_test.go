package workload

import (
	"testing"

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
