// Package netmodel simulates a server's egress NIC: a strict-priority
// transmit queue with an optional token-bucket throttle on low-priority
// (secondary-tenant) traffic, which is how PerfIso deprioritizes batch
// egress so the primary keeps its throughput and response latency (§3.2).
package netmodel

import "perfiso/internal/sim"

// PriorityClass separates primary from secondary egress.
type PriorityClass int

const (
	// PriorityHigh is used by the primary tenant (never throttled).
	PriorityHigh PriorityClass = iota
	// PriorityLow is used by secondary tenants; subject to throttling
	// and always transmitted after pending high-priority traffic.
	PriorityLow
)

// Packet is one egress transfer (a message or a chunk of a stream).
type Packet struct {
	Proc     string
	Class    PriorityClass
	Bytes    int64
	OnSent   func()
	enqueued sim.Time
}

// NICConfig describes the egress link.
type NICConfig struct {
	// Bandwidth is the link rate in bytes per second (10 GbE ≈ 1.25e9).
	Bandwidth float64
	// WireLatency is added per packet (propagation + stack cost).
	WireLatency sim.Duration
}

// TenGbE returns the evaluation machines' NIC.
func TenGbE() NICConfig {
	return NICConfig{Bandwidth: 1.25e9, WireLatency: 40 * sim.Microsecond}
}

// NIC is the egress path of one machine.
type NIC struct {
	eng *sim.Engine
	cfg NICConfig

	busy bool
	high sim.FIFO[*Packet]
	low  sim.FIFO[*Packet]
	// cur is the packet on the wire; sent, bound once as sentFn, retires
	// it. Only one transmission is ever in flight.
	cur    *Packet
	sentFn func()
	// Low-priority token bucket; lowRate <= 0 means unthrottled.
	lowRate   float64
	lowTokens float64
	lastFill  sim.Time
	gateArmed bool
	// gateFn, bound once, is the retry armGate schedules, so a
	// throttled low class arms its gate without allocating.
	gateFn func()

	class [2]ClassStats
}

// ClassStats is one priority class's egress readout.
type ClassStats struct {
	// Packets counts the packets that have started transmission, and
	// Bytes the bytes whose transmission has finished.
	Packets int64
	Bytes   int64
	// QueueTime totals the time those packets waited between Send and
	// the start of their transmission; MaxQueueTime is the longest
	// such wait.
	QueueTime    sim.Duration
	MaxQueueTime sim.Duration
}

// NewNIC creates an egress NIC driven by eng.
func NewNIC(eng *sim.Engine, cfg NICConfig) *NIC {
	if cfg.Bandwidth <= 0 {
		panic("netmodel: non-positive bandwidth")
	}
	n := &NIC{eng: eng, cfg: cfg}
	n.sentFn = n.sent
	n.gateFn = n.gateOpen
	return n
}

// SetLowPriorityRate caps secondary egress at bytesPerSec (≤0 removes
// the cap).
func (n *NIC) SetLowPriorityRate(bytesPerSec float64) {
	n.refill()
	n.lowRate = bytesPerSec
	if bytesPerSec > 0 && n.lowTokens > bytesPerSec {
		n.lowTokens = bytesPerSec
	}
}

// ClassStats reports the class's packet, byte and queueing-delay
// counters.
func (n *NIC) ClassStats(c PriorityClass) ClassStats { return n.class[c] }

// QueueDepth reports packets waiting (both classes).
func (n *NIC) QueueDepth() int { return n.high.Len() + n.low.Len() }

func (n *NIC) refill() {
	now := n.eng.Now()
	dt := now.Sub(n.lastFill).Seconds()
	if dt <= 0 {
		return
	}
	n.lastFill = now
	if n.lowRate > 0 {
		n.lowTokens += n.lowRate * dt
		// Burst bound: 100 ms worth of tokens.
		if max := n.lowRate * 0.1; n.lowTokens > max {
			n.lowTokens = max
		}
	}
}

// Send enqueues a packet for transmission.
func (n *NIC) Send(p *Packet) {
	if p.Bytes <= 0 {
		panic("netmodel: non-positive packet size")
	}
	p.enqueued = n.eng.Now()
	if p.Class == PriorityHigh {
		n.high.Push(p)
	} else {
		n.low.Push(p)
	}
	if !n.busy {
		n.transmitNext()
	}
}

// eligibleLow reports whether the head low-priority packet clears the
// token bucket.
func (n *NIC) eligibleLow() bool {
	if n.low.Len() == 0 {
		return false
	}
	if n.lowRate <= 0 {
		return true
	}
	n.refill()
	return n.lowTokens >= float64(n.low.Front().Bytes)
}

func (n *NIC) transmitNext() {
	var p *Packet
	switch {
	case n.high.Len() > 0:
		p = n.high.Pop()
	case n.eligibleLow():
		p = n.low.Pop()
		if n.lowRate > 0 {
			n.lowTokens -= float64(p.Bytes)
		}
	case n.low.Len() > 0:
		// Low traffic exists but is throttled: retry when tokens accrue.
		n.armGate()
		return
	default:
		return
	}
	n.busy = true
	cs := &n.class[p.Class]
	wait := n.eng.Now().Sub(p.enqueued)
	cs.Packets++
	cs.QueueTime += wait
	cs.MaxQueueTime = max(cs.MaxQueueTime, wait)
	txTime := sim.Duration(float64(p.Bytes) / n.cfg.Bandwidth * float64(sim.Second))
	n.cur = p
	n.eng.After(txTime+n.cfg.WireLatency, n.sentFn)
}

// sent retires the packet on the wire and starts the next one.
func (n *NIC) sent() {
	p := n.cur
	n.cur = nil
	n.busy = false
	n.class[p.Class].Bytes += p.Bytes
	if p.OnSent != nil {
		p.OnSent()
	}
	n.transmitNext()
}

func (n *NIC) armGate() {
	if n.gateArmed || n.low.Len() == 0 || n.lowRate <= 0 {
		return
	}
	need := (float64(n.low.Front().Bytes) - n.lowTokens) / n.lowRate
	wait := sim.Duration(need * float64(sim.Second))
	if wait < sim.Microsecond {
		wait = sim.Microsecond
	}
	n.gateArmed = true
	n.eng.After(wait, n.gateFn)
}

// gateOpen is the gate's retry: tokens have accrued for the head
// low-priority packet.
func (n *NIC) gateOpen() {
	n.gateArmed = false
	if !n.busy {
		n.transmitNext()
	}
}
