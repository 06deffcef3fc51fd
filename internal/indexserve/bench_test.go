package indexserve

import (
	"testing"

	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/netmodel"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// steadyLoad feeds a server one query every 250 µs (4000 QPS), running
// the engine between arrivals.
type steadyLoad struct {
	eng  *sim.Engine
	s    *Server
	rng  *sim.RNG
	next int
}

// newSteadyLoad builds a server on the default 48-core machine — with
// the SSD and HDD stripes and a 10 GbE NIC when devices is set — and
// warms it with a second of traffic, so its record pools, the engine's
// slot and lane storage and the machine's supply of released threads
// have all grown to their steady-state size.
func newSteadyLoad(devices bool) *steadyLoad {
	eng := sim.NewEngine()
	m := cpumodel.New(eng, sim.NewRNG(3), cpumodel.DefaultConfig())
	var ssd, hdd *diskmodel.Volume
	if devices {
		ssd = diskmodel.NewVolume(eng, diskmodel.SSDStripeConfig())
		hdd = diskmodel.NewVolume(eng, diskmodel.HDDStripeConfig())
	}
	s := New(m, DefaultConfig(), ssd, hdd)
	if devices {
		s.AttachNIC(netmodel.NewNIC(eng, netmodel.TenGbE()))
	}
	l := &steadyLoad{eng: eng, s: s, rng: sim.NewRNG(11)}
	for i := 0; i < 4000; i++ {
		l.query()
	}
	return l
}

// query submits the next query and advances the clock to the arrival
// after it.
func (l *steadyLoad) query() {
	l.s.Submit(workload.QuerySpec{ID: l.next, Seed: l.rng.Uint64()})
	l.next++
	l.eng.Run(l.eng.Now().Add(250 * sim.Microsecond))
}

// BenchmarkQuery measures one query's whole path on a warm server at
// 4000 QPS — arrival, matcher burst, ranking, completion — in ns/query
// and allocs/query, with no devices and with the SSD, HDD and NIC
// every node attaches.
func BenchmarkQuery(b *testing.B) {
	for _, c := range []struct {
		name    string
		devices bool
	}{{"bare", false}, {"ssd+hdd+nic", true}} {
		b.Run(c.name, func(b *testing.B) {
			l := newSteadyLoad(c.devices)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.query()
			}
		})
	}
}

// TestQueryPathDoesNotAllocate holds the steady-state query path on a
// machine with no devices to at most one allocation per query: records
// come from the server's pool and threads from the machine's.
func TestQueryPathDoesNotAllocate(t *testing.T) {
	l := newSteadyLoad(false)
	if allocs := testing.AllocsPerRun(2000, l.query); allocs > 1 {
		t.Fatalf("%.2f allocations per query, want at most 1", allocs)
	}
	if l.s.Completed == 0 || l.s.Dropped != 0 {
		t.Fatalf("completed %d, dropped %d: the load did not exercise the normal path", l.s.Completed, l.s.Dropped)
	}
}

// BenchmarkOverloadedServer measures the query path past saturation: a
// 16-core machine takes a query every 160 µs (6,250 QPS), about twice
// what it serves, so nearly every query runs into its 350 ms deadline
// and about 2,000 query records, with their matcher slots and threads,
// are in flight at once. One op is one arrival and the simulated time
// to the next.
func BenchmarkOverloadedServer(b *testing.B) {
	eng := sim.NewEngine()
	cfg := cpumodel.DefaultConfig()
	cfg.Cores = 16
	s := New(cpumodel.New(eng, sim.NewRNG(3), cfg), DefaultConfig(), nil, nil)
	rng := sim.NewRNG(11)
	next := 0
	query := func() {
		s.Submit(workload.QuerySpec{ID: next, Seed: rng.Uint64()})
		next++
		eng.Run(eng.Now().Add(160 * sim.Microsecond))
	}
	// Two simulated seconds: in flight reaches its plateau within one,
	// but a pooled query record keeps the matcher slots of the widest
	// query it has served, so the pool keeps adding slots, each a
	// record and its bound step, as its records meet wider queries:
	// over the next 5,000 queries about 1.1 allocations a query after
	// one second, and 0.4 after two. Threads are reused at once.
	for i := 0; i < 12500; i++ {
		query()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	b.StopTimer()
	if n := s.InFlight(); n < 1500 {
		b.Fatalf("%d queries in flight: the load did not overload the server", n)
	}
}
