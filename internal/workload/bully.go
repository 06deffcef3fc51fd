package workload

import (
	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// CPUBully is the paper's secondary micro-benchmark (§5.3): a
// multi-threaded program whose worker threads sum integers forever,
// maximizing CPU use with essentially no memory or storage traffic.
// "Mid" mode runs 24 workers, "high" runs 48 (one per logical core).
type CPUBully struct {
	Proc    *cpumodel.Process
	m       *cpumodel.Machine
	threads int
	running bool
}

// NewCPUBully creates the bully's process with the given worker count;
// Start launches the workers.
func NewCPUBully(m *cpumodel.Machine, name string, threads int) *CPUBully {
	if threads <= 0 {
		panic("workload: bully needs at least one thread")
	}
	return &CPUBully{
		Proc:    m.NewProcess(name, stats.ClassSecondary),
		m:       m,
		threads: threads,
	}
}

// Start spawns the always-runnable workers. Starting a running bully
// is a no-op — doubling the Forever threads would silently skew every
// progress and accounting measurement.
func (b *CPUBully) Start() {
	if b.running {
		return
	}
	b.running = true
	all := cpumodel.AllCores(b.m.Cores())
	for i := 0; i < b.threads; i++ {
		b.m.Spawn(b.Proc, cpumodel.Forever, all, nil)
	}
}

// Stop terminates all worker threads; the process itself survives, so
// a later Start relaunches the workers under the same accounting.
func (b *CPUBully) Stop() {
	b.running = false
	b.m.Kill(b.Proc)
}

// Threads reports the configured worker count.
func (b *CPUBully) Threads() int { return b.threads }

// Progress reports the bully's absolute progress. The real bully counts
// completed integer additions; with a fixed per-addition cost that is
// proportional to consumed CPU time, so CPU seconds is the progress
// unit (Fig. 8c).
func (b *CPUBully) Progress() float64 { return b.Proc.CPUTime().Seconds() }

// DiskBullyConfig parameterizes the DiskSPD-style I/O generator of
// §5.3: mixed 33% read / 67% write, sequential, synchronous operations.
type DiskBullyConfig struct {
	ProcName    string
	ChunkBytes  int64 // 8 KB in the paper's throttling experiments
	Outstanding int   // concurrent synchronous workers
	ReadFrac    float64
	Seed        uint64
}

// DefaultDiskBullyConfig mirrors §5.3.
func DefaultDiskBullyConfig() DiskBullyConfig {
	return DiskBullyConfig{
		ProcName:    "diskbully",
		ChunkBytes:  8 << 10,
		Outstanding: 8,
		ReadFrac:    0.33,
		Seed:        1,
	}
}

// DiskBully issues a continuous synchronous I/O stream at the given
// volume: each worker submits one operation and submits the next upon
// completion. A worker re-submits one request for its whole chain, so
// the stream allocates nothing once started.
type DiskBully struct {
	cfg     DiskBullyConfig
	vol     *diskmodel.Volume
	rng     *sim.RNG
	stopped bool
	// Ops counts completed operations.
	Ops uint64
}

// NewDiskBully builds a bully against vol.
func NewDiskBully(vol *diskmodel.Volume, cfg DiskBullyConfig) *DiskBully {
	if cfg.Outstanding <= 0 || cfg.ChunkBytes <= 0 {
		panic("workload: invalid disk bully config")
	}
	return &DiskBully{cfg: cfg, vol: vol, rng: sim.NewRNG(cfg.Seed)}
}

// Start launches the workers.
func (d *DiskBully) Start() {
	for i := 0; i < d.cfg.Outstanding; i++ {
		r := &diskmodel.Request{
			Proc:       d.cfg.ProcName,
			Bytes:      d.cfg.ChunkBytes,
			Sequential: true,
		}
		r.OnComplete = func() {
			d.Ops++
			d.issue(r)
		}
		d.issue(r)
	}
}

// Stop ends the stream after in-flight operations complete.
func (d *DiskBully) Stop() { d.stopped = true }

// issue submits the worker's next operation in its request r, whose
// previous operation (if any) has completed.
func (d *DiskBully) issue(r *diskmodel.Request) {
	if d.stopped {
		return
	}
	r.Kind = diskmodel.OpWrite
	if d.rng.Float64() < d.cfg.ReadFrac {
		r.Kind = diskmodel.OpRead
	}
	d.vol.Submit(r)
}

// BackgroundCPU keeps a process at a target fraction of machine CPU by
// spawning short periodic bursts: it models OS housekeeping (~2%) and
// the HDFS client's CPU share (~5%, §6.2). Bursts are spread over cores
// by the scheduler's normal placement; they are detached, so the
// machine recycles their threads.
type BackgroundCPU struct {
	Proc *cpumodel.Process
	m    *cpumodel.Machine
	// Fraction of total machine CPU to consume.
	Fraction float64
	// Period between burst volleys.
	Period sim.Duration
	// Streams is the number of parallel bursts per volley.
	Streams int

	// gen counts Starts; a volley ticker runs only while its Start's
	// generation is current and the load is running.
	running bool
	gen     int
}

// NewBackgroundCPU builds the load generator; call Start to begin.
func NewBackgroundCPU(m *cpumodel.Machine, name string, class stats.Class, fraction float64) *BackgroundCPU {
	if fraction <= 0 || fraction >= 1 {
		panic("workload: background fraction must be in (0,1)")
	}
	return &BackgroundCPU{
		Proc:     m.NewProcess(name, class),
		m:        m,
		Fraction: fraction,
		Period:   4 * sim.Millisecond,
		Streams:  4,
	}
}

// Start begins the periodic volleys, the first one Period from now.
// Starting a running load is a no-op. After Stop, Start resumes exactly
// one stream, even within a Period of the Stop: the stopped stream's
// ticker sees a newer generation and ends.
func (b *BackgroundCPU) Start() {
	burst := sim.Duration(b.Fraction * float64(b.m.Cores()) * float64(b.Period) / float64(b.Streams))
	if burst <= 0 {
		panic("workload: background burst rounds to zero")
	}
	if b.running {
		return
	}
	b.running = true
	b.gen++
	gen := b.gen
	all := cpumodel.AllCores(b.m.Cores())
	b.m.Engine().Ticker(b.Period, func() bool {
		if !b.running || b.gen != gen {
			return false
		}
		for i := 0; i < b.Streams; i++ {
			b.m.SpawnDetached(b.Proc, burst, all, nil)
		}
		return true
	})
}

// Stop ends the volleys (in-flight bursts still finish).
func (b *BackgroundCPU) Stop() { b.running = false }
