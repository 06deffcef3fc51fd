package harvest

import (
	"testing"

	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

func TestTraceFeederReplaysIntoScheduler(t *testing.T) {
	eng, _, sched := newTestCluster(t, 2, PolicyHarvestAware)
	trace := []workload.BatchTaskSpec{
		{ID: 0, Submit: sim.Time(0), CPU: 100 * sim.Millisecond},
		{ID: 1, Submit: sim.Time(0), CPU: 150 * sim.Millisecond},
		{ID: 2, Submit: sim.Time(400 * sim.Millisecond), CPU: 100 * sim.Millisecond},
		{ID: 3, Submit: sim.Time(900 * sim.Millisecond), DiskOps: 50},
	}
	f, err := NewTraceFeeder(sched, trace)
	if err != nil {
		t.Fatal(err)
	}
	if f.Tasks() != 4 {
		t.Fatalf("Tasks() = %d, want 4", f.Tasks())
	}
	f.Start()

	// Submission is open-loop on the trace's own clock: before the
	// third record's offset only two jobs exist.
	eng.Run(sim.Time(200 * sim.Millisecond))
	if f.Submitted != 2 {
		t.Fatalf("submitted = %d at t=200ms, want 2", f.Submitted)
	}
	if got := len(sched.Jobs()); got != 2 {
		t.Fatalf("scheduler sees %d jobs at t=200ms, want 2", got)
	}

	eng.Run(sim.Time(8 * sim.Second))
	if f.Submitted != 4 {
		t.Fatalf("submitted = %d after the span, want 4", f.Submitted)
	}
	st := sched.Stats()
	if st.JobsSubmitted != 4 || st.TasksCompleted != 4 {
		t.Fatalf("stats = %+v, want 4 jobs / 4 tasks complete", st)
	}
	// The disk record replays as a disk-bound task, the rest CPU-bound.
	jobs := sched.Jobs()
	for i, j := range jobs[:3] {
		if j.Spec.TaskWork != trace[i].CPU || j.Spec.TaskOps != 0 {
			t.Fatalf("job %d spec = %+v, want CPU-bound %v", i, j.Spec, trace[i].CPU)
		}
	}
	if jobs[3].Spec.TaskOps != 50 || jobs[3].Spec.TaskWork != 0 {
		t.Fatalf("disk job spec = %+v, want 50 ops", jobs[3].Spec)
	}
	if want := 100*sim.Millisecond + 150*sim.Millisecond + 100*sim.Millisecond; st.HarvestedCPU < want {
		t.Fatalf("harvested %v < CPU demand %v", st.HarvestedCPU, want)
	}
}

func TestTraceFeederValidatesEagerly(t *testing.T) {
	_, _, sched := newTestCluster(t, 2, PolicyRoundRobin)
	if _, err := NewTraceFeeder(sched, []workload.BatchTaskSpec{
		{ID: 0, Submit: 0, CPU: sim.Second},
		{ID: 1, Submit: 0}, // demands nothing
	}); err == nil {
		t.Fatal("zero-demand record accepted")
	}
}

func TestTraceFeederClampsPastSubmits(t *testing.T) {
	eng, _, sched := newTestCluster(t, 2, PolicyLeastLoaded)
	eng.Run(sim.Time(500 * sim.Millisecond))
	trace := []workload.BatchTaskSpec{
		{ID: 0, Submit: sim.Time(100 * sim.Millisecond), CPU: 50 * sim.Millisecond},
	}
	f, err := NewTraceFeeder(sched, trace)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	eng.Run(sim.Time(2 * sim.Second))
	if f.Submitted != 1 || sched.Stats().TasksCompleted != 1 {
		t.Fatalf("past-dated record not replayed: submitted=%d stats=%+v", f.Submitted, sched.Stats())
	}
}

func TestTraceFeederStartTwicePanics(t *testing.T) {
	_, _, sched := newTestCluster(t, 2, PolicyRoundRobin)
	f, err := NewTraceFeeder(sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	f.Start()
}

// TestTraceFeederGeneratedTrace replays a generated batch-task trace
// end to end and checks the scheduler drains it.
func TestTraceFeederGeneratedTrace(t *testing.T) {
	eng, _, sched := newTestCluster(t, 3, PolicyHarvestAware)
	trace := workload.GenerateBatchTrace(workload.BatchTraceConfig{
		Tasks:     40,
		Rate:      40,
		BurstMean: 4,
		MeanCPU:   80 * sim.Millisecond,
		TailAlpha: 1.6,
		Seed:      7,
	})
	f, err := NewTraceFeeder(sched, trace)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	eng.Run(sim.Time(30 * sim.Second))
	st := sched.Stats()
	if f.Submitted != 40 {
		t.Fatalf("submitted = %d, want 40", f.Submitted)
	}
	if st.TasksCompleted != 40 {
		t.Fatalf("completed = %d of 40 (pending %d, running %d)",
			st.TasksCompleted, st.TasksPending, st.TasksRunning)
	}
}
