package harvest

import (
	"fmt"

	"perfiso/internal/cluster"
	"perfiso/internal/cpumodel"
	"perfiso/internal/sim"
)

// JobSpec describes a batch job submitted to the scheduler.
type JobSpec struct {
	// Name identifies the job in placements and reports.
	Name string
	// Tasks is the number of independent tasks in the job.
	Tasks int
	// TaskWork is the CPU demand of one task in CPU-time; a task
	// completes when its threads have consumed this much CPU.
	// Required for CPU-bound jobs, ignored for disk-bound ones.
	TaskWork sim.Duration
	// ThreadsPerTask splits a task's work across parallel threads
	// (0 or 1 = single-threaded).
	ThreadsPerTask int
	// TaskOps is the number of synchronous 8 KB disk operations of one
	// disk-bound task. Required when Kind is cluster.DiskSecondary.
	TaskOps int
	// Kind selects the secondary flavor: cluster.CPUSecondary tasks
	// burn CPU under blind isolation, cluster.DiskSecondary tasks
	// stream HDD I/O under the DWRR throttler.
	Kind cluster.Secondary
}

// Validate reports the first problem with the spec.
func (s JobSpec) Validate() error {
	if s.Tasks <= 0 {
		return fmt.Errorf("harvest: job %q has %d tasks", s.Name, s.Tasks)
	}
	if s.ThreadsPerTask < 0 {
		return fmt.Errorf("harvest: job %q has negative threads per task", s.Name)
	}
	switch s.Kind {
	case cluster.CPUSecondary:
		if s.TaskWork <= 0 {
			return fmt.Errorf("harvest: CPU job %q has non-positive task work", s.Name)
		}
	case cluster.DiskSecondary:
		if s.TaskOps <= 0 {
			return fmt.Errorf("harvest: disk job %q has non-positive task ops", s.Name)
		}
	default:
		return fmt.Errorf("harvest: job %q has unsupported kind %v", s.Name, s.Kind)
	}
	return nil
}

// TaskState tracks a task through the scheduler.
type TaskState int

const (
	// TaskPending means queued, awaiting placement.
	TaskPending TaskState = iota
	// TaskRunning means placed and executing on a machine.
	TaskRunning
	// TaskDone means the task's demand has been fully served.
	TaskDone
)

func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	}
	return fmt.Sprintf("taskstate(%d)", int(s))
}

// Job is a submitted batch job.
type Job struct {
	ID        int
	Spec      JobSpec
	Submitted sim.Time
	// Completed counts finished tasks.
	Completed int

	tasks []*Task
}

// Done reports whether every task has completed.
func (j *Job) Done() bool { return j.Completed == j.Spec.Tasks }

// Tasks returns the job's tasks (index order).
func (j *Job) Tasks() []*Task { return j.tasks }

// Task is one schedulable unit of a job.
type Task struct {
	Job   *Job
	Index int
	// Attempts counts placements (1 on first placement; preemptions and
	// failures add one per requeue-and-replace cycle).
	Attempts int
	State    TaskState

	// remaining is the CPU work left (CPU kind). Preemption preserves
	// it — the threads migrate; a machine failure resets it to the full
	// demand, since the in-progress state died with the machine.
	remaining sim.Duration
	// opsLeft is the disk-op count left (disk kind).
	opsLeft int

	machine *machineState
	threads []*cpumodel.Thread
	live    int // live thread count (CPU kind)
	// epoch identifies the current placement. Every start and preempt
	// bumps it, so completion callbacks from a superseded placement
	// (a disk op still in flight on the old machine, say) recognize
	// themselves as stale and stop.
	epoch int
	// ops holds the task's disk ops whose completions have fired (see
	// diskOp).
	ops []*diskOp
}

// OpsLeft reports the disk operations left on a disk-bound task.
func (t *Task) OpsLeft() int { return t.opsLeft }

// Placement records one scheduling decision, for reports and the
// determinism guarantee (same seed ⇒ identical placement log).
type Placement struct {
	At      sim.Time
	Job     string
	Task    int
	Attempt int
	Row     int
	Col     int
	Policy  string
}

func (p Placement) String() string {
	return fmt.Sprintf("%v %s[%d]#%d -> (%d,%d) by %s", p.At, p.Job, p.Task, p.Attempt, p.Row, p.Col, p.Policy)
}
