package cluster

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// steadyCluster feeds a cluster one user query every 500 µs (1000 QPS
// per row, the harvest frontier's load), running the engine between
// arrivals.
type steadyCluster struct {
	c *Cluster
}

// newSteadyCluster builds a 6×2 cluster — every machine with PerfIso,
// the HDFS tenant and OS housekeeping — and warms it with 4000 queries,
// two simulated seconds, so the fan-out and query record pools, the
// tenants' request pools, the machines' thread free lists and the
// engine's storage have all grown to their steady-state size.
func newSteadyCluster(tb testing.TB) *steadyCluster {
	tb.Helper()
	c := New(sim.NewEngine(), ScaledConfig(6))
	if err := c.InstallPerfIso(core.DefaultConfig()); err != nil {
		tb.Fatal(err)
	}
	l := &steadyCluster{c: c}
	for i := 0; i < 4000; i++ {
		l.query()
	}
	return l
}

// query submits the next user query and advances the clock to the
// arrival after it.
func (l *steadyCluster) query() {
	l.c.Submit()
	l.c.Eng.Run(l.c.Eng.Now().Add(500 * sim.Microsecond))
}

// dropped sums the index servers' deadline drops.
func (l *steadyCluster) dropped() uint64 {
	var n uint64
	l.c.EachMachine(func(m *IndexMachine) { n += m.Node.Server.Dropped })
	return n
}

// BenchmarkClusterQuery measures one user query's whole path through a
// warm 6×2 PerfIso cluster with HDFS — TLA→MLA hop, fan-out to six
// columns, their IndexServe queries, the replies, the MLA aggregation
// and the TLA merge, plus the tenants' and controllers' work in the
// same simulated span — in ns/query and allocs/query.
func BenchmarkClusterQuery(b *testing.B) {
	l := newSteadyCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.query()
	}
}

// TestClusterQueryPathDoesNotAllocate holds the steady-state cluster
// path to at most one allocation per user query: fan-out records come
// from the cluster's pool, IndexServe records from each server's, tenant
// requests and packets from their flows', and threads — background
// bursts and MLA aggregations included — from the machines' free lists.
func TestClusterQueryPathDoesNotAllocate(t *testing.T) {
	l := newSteadyCluster(t)
	completed, dropped := l.c.Completed, l.dropped()
	if allocs := testing.AllocsPerRun(2000, l.query); allocs > 1 {
		t.Fatalf("%.2f allocations per query, want at most 1", allocs)
	}
	if got := l.c.Completed - completed; got < 1900 || l.dropped() != dropped || l.c.Unserved() != 0 {
		t.Fatalf("%d queries completed, %d dropped, %d unserved: the load did not exercise the normal path",
			got, l.dropped()-dropped, l.c.Unserved())
	}
}
