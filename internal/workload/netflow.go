package workload

import (
	"perfiso/internal/netmodel"
	"perfiso/internal/sim"
)

// NetFlowConfig parameterizes a synthetic egress stream.
type NetFlowConfig struct {
	// ProcName labels the traffic for accounting.
	ProcName string
	// Class selects the NIC priority band (the primary's responses are
	// PriorityHigh; batch shuffle/replication is PriorityLow, §3.2).
	Class netmodel.PriorityClass
	// PacketBytes is the transfer unit.
	PacketBytes int64
	// TargetRate is the offered load in bytes per second.
	TargetRate float64
	// Seed jitters inter-packet gaps (Poisson).
	Seed uint64
}

// NetFlow generates an open-loop egress stream against a NIC: the batch
// side of the §3.2 egress experiment (e.g. HDFS replication pushing
// data off-machine) or the primary's own response traffic.
type NetFlow struct {
	cfg     NetFlowConfig
	nic     *netmodel.NIC
	eng     *sim.Engine
	rng     *sim.RNG
	stopped bool
	// sendFn is send bound once; packets holds the packets not on the
	// wire, so the steady-state stream allocates nothing.
	sendFn  func()
	packets []*netmodel.Packet

	// Sent counts packets handed to the NIC; Delivered counts
	// completed transmissions.
	Sent      uint64
	Delivered uint64
}

// NewNetFlow builds a flow; call Start to begin sending.
func NewNetFlow(eng *sim.Engine, nic *netmodel.NIC, cfg NetFlowConfig) *NetFlow {
	if cfg.PacketBytes <= 0 || cfg.TargetRate <= 0 {
		panic("workload: invalid net flow config")
	}
	f := &NetFlow{cfg: cfg, nic: nic, eng: eng, rng: sim.NewRNG(cfg.Seed)}
	f.sendFn = f.send
	return f
}

// Start begins the open-loop stream.
func (f *NetFlow) Start() { f.next() }

// Stop ends the stream after in-flight packets drain.
func (f *NetFlow) Stop() { f.stopped = true }

func (f *NetFlow) next() {
	if f.stopped {
		return
	}
	meanGap := sim.Duration(float64(f.cfg.PacketBytes) / f.cfg.TargetRate * float64(sim.Second))
	f.eng.After(f.rng.ExpDuration(meanGap), f.sendFn)
}

// send hands the next packet to the NIC and plans the one after it.
func (f *NetFlow) send() {
	if f.stopped {
		return
	}
	f.Sent++
	f.nic.Send(f.packet())
	f.next()
}

// packet returns a pooled packet; it rejoins the pool once sent.
func (f *NetFlow) packet() *netmodel.Packet {
	if n := len(f.packets); n > 0 {
		p := f.packets[n-1]
		f.packets = f.packets[:n-1]
		return p
	}
	p := &netmodel.Packet{
		Proc:  f.cfg.ProcName,
		Class: f.cfg.Class,
		Bytes: f.cfg.PacketBytes,
	}
	p.OnSent = func() {
		f.Delivered++
		f.packets = append(f.packets, p)
	}
	return p
}

// DeliveredBytes reports bytes actually put on the wire by this flow.
func (f *NetFlow) DeliveredBytes() int64 { return int64(f.Delivered) * f.cfg.PacketBytes }
