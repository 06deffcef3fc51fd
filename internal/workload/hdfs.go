package workload

import (
	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/netmodel"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
)

// HDFSConfig parameterizes the composite HDFS-style secondary tenant of
// §5.3: every index machine runs an HDFS DataNode (replication ingest
// and egress) and a client serving batch-framework I/O, all over the
// shared HDD stripe and the machine's NIC. PerfIso caps replication at
// 20 MB/s and clients at 60 MB/s in the cluster experiments.
type HDFSConfig struct {
	// ClientProc / ReplicationProc name the two flows for per-process
	// throttling and accounting.
	ClientProc      string
	ReplicationProc string

	// ClientRate is the client's offered disk I/O in bytes/second;
	// ClientReadFrac splits it between reads and writes. All client
	// I/O is unbuffered (§5.3), i.e. synchronous against the volume.
	ClientRate     float64
	ClientReadFrac float64
	// ClientChunk is the client's operation size.
	ClientChunk int64

	// ReplicationRate is the DataNode's ingest write rate in
	// bytes/second; each ingested block is also pushed to the next
	// replica over the NIC at low priority.
	ReplicationRate  float64
	ReplicationChunk int64

	// CPUFraction is the tenant's background CPU share ("the HDFS
	// client takes up to 5% of total CPU time", §6.2).
	CPUFraction float64

	// Seed drives flow jitter.
	Seed uint64
}

// DefaultHDFSConfig mirrors the §5.3 cluster setup before PerfIso's
// caps are applied (the caps come from the controller's IO policy).
func DefaultHDFSConfig() HDFSConfig {
	return HDFSConfig{
		ClientProc:       "hdfs-client",
		ReplicationProc:  "hdfs-replication",
		ClientRate:       80 << 20,
		ClientReadFrac:   0.5,
		ClientChunk:      64 << 10,
		ReplicationRate:  30 << 20,
		ReplicationChunk: 128 << 10,
		CPUFraction:      0.04,
		Seed:             1,
	}
}

// HDFS is the assembled tenant: two disk flows, an egress stream, and a
// CPU trickle. It exposes the pieces so tests and experiments can
// read their counters.
//
// The flows are open-loop, so several of each flow's operations can be
// in flight at once. Each flow keeps the requests and packets no device
// is using in a free list, with completions bound when they are made,
// so the steady-state tenant allocates nothing.
type HDFS struct {
	cfg HDFSConfig
	eng *sim.Engine
	hdd *diskmodel.Volume
	nic *netmodel.NIC
	rng *sim.RNG

	// CPU is the background CPU component (nil when CPUFraction is 0).
	CPU *BackgroundCPU

	// gen counts Starts; a flow chain continues only while its Start's
	// generation is current and the tenant is running.
	running bool
	gen     int

	clientReqs []*diskmodel.Request
	replReqs   []*diskmodel.Request
	packets    []*netmodel.Packet

	// ClientOps / ReplicationOps count completed disk operations.
	ClientOps      uint64
	ReplicationOps uint64
	// ReplicatedBytes counts bytes pushed to the next replica.
	ReplicatedBytes int64
}

// NewHDFS builds the tenant on a machine's HDD stripe, NIC and CPU.
// nic may be nil (no egress); cpu may be nil (no CPU component).
func NewHDFS(eng *sim.Engine, hdd *diskmodel.Volume, nic *netmodel.NIC, cpu *cpumodel.Machine, cfg HDFSConfig) *HDFS {
	if cfg.ClientRate <= 0 || cfg.ReplicationRate <= 0 || cfg.ClientChunk <= 0 || cfg.ReplicationChunk <= 0 {
		panic("workload: invalid HDFS config")
	}
	h := &HDFS{cfg: cfg, eng: eng, hdd: hdd, nic: nic, rng: sim.NewRNG(cfg.Seed ^ 0xdf5)}
	if cpu != nil && cfg.CPUFraction > 0 {
		h.CPU = NewBackgroundCPU(cpu, cfg.ClientProc, stats.ClassSecondary, cfg.CPUFraction)
	}
	return h
}

// Start launches all flows. Starting a running tenant is a no-op.
// After Stop, Start resumes exactly one of each flow, even while the
// stopped flows' next operations are still pending: those see a newer
// generation and end.
func (h *HDFS) Start() {
	if h.running {
		return
	}
	h.running = true
	h.gen++
	if h.CPU != nil {
		h.CPU.Start()
	}
	gen := h.gen
	clientGap := sim.Duration(float64(h.cfg.ClientChunk) / h.cfg.ClientRate * float64(sim.Second))
	replGap := sim.Duration(float64(h.cfg.ReplicationChunk) / h.cfg.ReplicationRate * float64(sim.Second))
	// Each flow is one chain of events, bound here once: an operation
	// draws the gap to its successor when it schedules it, and the
	// client draws the op kind when the operation fires.
	var client, replicate func()
	client = func() {
		if !h.running || h.gen != gen {
			return
		}
		r := h.clientRequest()
		r.Kind = diskmodel.OpWrite
		if h.rng.Float64() < h.cfg.ClientReadFrac {
			r.Kind = diskmodel.OpRead
		}
		h.hdd.Submit(r)
		h.eng.After(h.rng.ExpDuration(clientGap), client)
	}
	replicate = func() {
		if !h.running || h.gen != gen {
			return
		}
		h.hdd.Submit(h.replicationRequest())
		h.eng.After(h.rng.ExpDuration(replGap), replicate)
	}
	h.eng.After(h.rng.ExpDuration(clientGap), client)
	h.eng.After(h.rng.ExpDuration(replGap), replicate)
}

// Stop winds the tenant down; in-flight operations complete.
func (h *HDFS) Stop() {
	h.running = false
	if h.CPU != nil {
		h.CPU.Stop()
	}
}

// clientRequest returns a pooled client request; it rejoins the pool
// when it completes.
func (h *HDFS) clientRequest() *diskmodel.Request {
	if n := len(h.clientReqs); n > 0 {
		r := h.clientReqs[n-1]
		h.clientReqs = h.clientReqs[:n-1]
		return r
	}
	r := &diskmodel.Request{
		Proc:       h.cfg.ClientProc,
		Bytes:      h.cfg.ClientChunk,
		Sequential: true,
	}
	r.OnComplete = func() {
		h.ClientOps++
		h.clientReqs = append(h.clientReqs, r)
	}
	return r
}

// replicationRequest returns a pooled block ingest (an HDD write) whose
// completion forwards the block to the next replica over the NIC at low
// priority; it rejoins the pool when it completes.
func (h *HDFS) replicationRequest() *diskmodel.Request {
	if n := len(h.replReqs); n > 0 {
		r := h.replReqs[n-1]
		h.replReqs = h.replReqs[:n-1]
		return r
	}
	r := &diskmodel.Request{
		Proc:       h.cfg.ReplicationProc,
		Kind:       diskmodel.OpWrite,
		Bytes:      h.cfg.ReplicationChunk,
		Sequential: true,
	}
	r.OnComplete = func() {
		h.ReplicationOps++
		if h.nic != nil {
			h.nic.Send(h.packet())
		}
		h.replReqs = append(h.replReqs, r)
	}
	return r
}

// packet returns a pooled replication packet; it rejoins the pool once
// sent.
func (h *HDFS) packet() *netmodel.Packet {
	if n := len(h.packets); n > 0 {
		p := h.packets[n-1]
		h.packets = h.packets[:n-1]
		return p
	}
	p := &netmodel.Packet{
		Proc:  h.cfg.ReplicationProc,
		Class: netmodel.PriorityLow,
		Bytes: h.cfg.ReplicationChunk,
	}
	p.OnSent = func() {
		h.ReplicatedBytes += h.cfg.ReplicationChunk
		h.packets = append(h.packets, p)
	}
	return p
}
