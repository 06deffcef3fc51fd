package harvest

import (
	"testing"

	"perfiso/internal/cluster"
	"perfiso/internal/sim"
)

// BenchmarkSchedulerTick times one scheduling round on a 12-machine
// cluster (6 columns × 2 rows, PerfIso on every machine, no primary
// load) under each policy: the round sheds nothing and places a
// 48-task backlog, up to four tasks a machine. Between rounds, off the
// clock, every task is preempted back onto the queue.
func BenchmarkSchedulerTick(b *testing.B) {
	for _, policy := range PolicyNames() {
		b.Run(policy, func(b *testing.B) {
			eng, _, s := newTestCluster(b, 6, policy)
			if _, err := s.Submit(JobSpec{Name: "batch", Tasks: 48, TaskWork: sim.Hour, Kind: cluster.CPUSecondary}); err != nil {
				b.Fatal(err)
			}
			requeue := func() {
				for _, ms := range s.machines {
					for len(ms.running) > 0 {
						t := ms.running[len(ms.running)-1]
						s.preempt(t)
						s.pending.Push(t)
					}
				}
				s.placements = s.placements[:0]
			}
			// Let the controllers' harvest signal settle.
			eng.Run(sim.Time(200 * sim.Millisecond))
			requeue()
			placed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Tick()
				b.StopTimer()
				placed += len(s.placements)
				requeue()
				b.StartTimer()
			}
			b.ReportMetric(float64(placed)/float64(b.N), "placements/op")
		})
	}
}
