// Package diskmodel simulates striped disk volumes (the SSD and HDD
// stripes of §5.2) with per-process I/O accounting, priority-ordered
// queueing, and per-process token-bucket rate limits — the substrate the
// DWRR I/O throttler (§4.1) and the static HDFS bandwidth caps (§5.3)
// act upon.
package diskmodel

import (
	"fmt"
	"sort"

	"perfiso/internal/sim"
)

// OpKind distinguishes reads from writes.
type OpKind uint8

const (
	// OpRead is a read request.
	OpRead OpKind = iota
	// OpWrite is a write request.
	OpWrite
)

func (k OpKind) String() string {
	if k == OpRead {
		return "read"
	}
	return "write"
}

// Request is one I/O operation. Kind, Sequential and priority share one
// word, which keeps it at 64 bytes (TestRequestSizeClass).
type Request struct {
	Proc       string // owning process (for accounting and throttling)
	Bytes      int64
	OnComplete func()
	Kind       OpKind
	Sequential bool

	priority int32
	enqueued sim.Time
	seq      uint64     // FIFO tiebreak within a priority level
	proc     *procState // Proc's state on the volume, found at Submit
}

// VolumeConfig describes a striped volume.
type VolumeConfig struct {
	Name string
	// Drives is the stripe width; each drive serves one request at a
	// time.
	Drives int
	// SeekTime is charged per non-sequential operation (≈8 ms for an
	// HDD spindle, ≈80 µs for SSD).
	SeekTime sim.Duration
	// PerDriveBandwidth is the sequential transfer rate of one drive,
	// in bytes per second.
	PerDriveBandwidth float64
	// FixedOverhead is charged per operation (controller/command cost).
	FixedOverhead sim.Duration
}

// SSDStripeConfig models the paper's 4×500 GB SSD stripe.
func SSDStripeConfig() VolumeConfig {
	return VolumeConfig{
		Name:              "ssd",
		Drives:            4,
		SeekTime:          60 * sim.Microsecond,
		PerDriveBandwidth: 450e6,
		FixedOverhead:     20 * sim.Microsecond,
	}
}

// HDDStripeConfig models the paper's 4×2 TB HDD stripe.
func HDDStripeConfig() VolumeConfig {
	return VolumeConfig{
		Name:              "hdd",
		Drives:            4,
		SeekTime:          8 * sim.Millisecond,
		PerDriveBandwidth: 160e6,
		FixedOverhead:     100 * sim.Microsecond,
	}
}

// ProcIOStats is the per-process usage a volume tracks.
type ProcIOStats struct {
	Ops       uint64
	Bytes     int64
	ReadOps   uint64
	WriteOps  uint64
	QueueTime sim.Duration
}

// procState holds throttling state for one process on one volume.
type procState struct {
	stats ProcIOStats
	// Token-bucket rate limits; zero values mean unlimited.
	bytesPerSec float64
	opsPerSec   float64
	bytesTokens float64
	opsTokens   float64
	lastRefill  sim.Time
	pending     sim.FIFO[*Request] // requests gated by the limiter
	priority    int
	gateArmed   bool
	// retry is the gate's retry, bound once per process state, so a
	// throttled flow arms its gate without allocating.
	retry func()
}

// Volume is a striped set of identical drives fed from one priority
// queue.
type Volume struct {
	eng *sim.Engine
	cfg VolumeConfig

	busyDrives int
	queue      []*Request
	nextSeq    uint64
	procs      map[string]*procState

	// TotalOps counts completed operations.
	TotalOps uint64

	donePool []*ioDone
}

// ioDone is a pooled service-completion record. Its fn is bound once,
// so starting an operation allocates nothing: the record cycles
// between the volume's pool and the engine, and fire returns it to the
// pool before completing (the completion may start the next operation,
// which can legally reuse this very record).
type ioDone struct {
	v  *Volume
	r  *Request
	fn func()
}

func (d *ioDone) fire() {
	v, r := d.v, d.r
	d.r = nil
	v.donePool = append(v.donePool, d)
	v.busyDrives--
	v.complete(r)
	if v.busyDrives < v.cfg.Drives {
		v.startNext()
	}
}

// NewVolume creates a volume driven by eng.
func NewVolume(eng *sim.Engine, cfg VolumeConfig) *Volume {
	if cfg.Drives <= 0 {
		panic("diskmodel: volume needs at least one drive")
	}
	if cfg.PerDriveBandwidth <= 0 {
		panic("diskmodel: non-positive drive bandwidth")
	}
	return &Volume{
		eng:   eng,
		cfg:   cfg,
		procs: map[string]*procState{},
	}
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.cfg.Name }

func (v *Volume) proc(name string) *procState {
	p, ok := v.procs[name]
	if !ok {
		p = &procState{lastRefill: v.eng.Now()}
		p.retry = func() {
			p.gateArmed = false
			v.drainPending(p)
		}
		v.procs[name] = p
	}
	return p
}

// Stats returns a copy of the accounting for proc.
func (v *Volume) Stats(proc string) ProcIOStats { return v.proc(proc).stats }

// Procs lists processes that have touched the volume, sorted.
func (v *Volume) Procs() []string {
	out := make([]string, 0, len(v.procs))
	for n := range v.procs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetRateLimit applies token-bucket caps for proc: bytesPerSec and
// opsPerSec; zero disables the respective cap.
func (v *Volume) SetRateLimit(proc string, bytesPerSec, opsPerSec float64) {
	p := v.proc(proc)
	v.refill(p)
	p.bytesPerSec = bytesPerSec
	p.opsPerSec = opsPerSec
	if bytesPerSec > 0 && p.bytesTokens > bytesPerSec {
		p.bytesTokens = bytesPerSec
	}
	if opsPerSec > 0 && p.opsTokens > opsPerSec {
		p.opsTokens = opsPerSec
	}
}

// SetPriority orders proc's requests relative to others: higher runs
// first. prio must fit in an int32. The DWRR throttler adjusts this
// continuously.
func (v *Volume) SetPriority(proc string, prio int) {
	v.proc(proc).priority = prio
}

// Priority reports proc's current priority.
func (v *Volume) Priority(proc string) int { return v.proc(proc).priority }

func (v *Volume) refill(p *procState) {
	now := v.eng.Now()
	dt := now.Sub(p.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	p.lastRefill = now
	if p.bytesPerSec > 0 {
		p.bytesTokens += p.bytesPerSec * dt
		if p.bytesTokens > p.bytesPerSec { // burst bound: 1 second
			p.bytesTokens = p.bytesPerSec
		}
	}
	if p.opsPerSec > 0 {
		p.opsTokens += p.opsPerSec * dt
		if p.opsTokens > p.opsPerSec {
			p.opsTokens = p.opsPerSec
		}
	}
}

// Submit enqueues a request. Rate-limited processes may see it gated
// before it reaches the device queue.
func (v *Volume) Submit(r *Request) {
	if r.Bytes <= 0 {
		panic("diskmodel: non-positive request size")
	}
	p := v.proc(r.Proc)
	r.proc = p
	r.enqueued = v.eng.Now()
	v.nextSeq++
	r.seq = v.nextSeq
	p.pending.Push(r)
	v.drainPending(p)
}

// drainPending admits as many of proc's gated requests as its token
// buckets allow, scheduling a retry when the bucket runs dry.
func (v *Volume) drainPending(p *procState) {
	v.refill(p)
	for p.pending.Len() > 0 {
		r := p.pending.Front()
		needBytes := p.bytesPerSec > 0 && p.bytesTokens < float64(r.Bytes)
		needOps := p.opsPerSec > 0 && p.opsTokens < 1
		if needBytes || needOps {
			v.armGate(p, r)
			return
		}
		if p.bytesPerSec > 0 {
			p.bytesTokens -= float64(r.Bytes)
		}
		if p.opsPerSec > 0 {
			p.opsTokens--
		}
		p.pending.Pop()
		v.admit(r, p)
	}
}

// armGate schedules the retry that re-admits gated requests once tokens
// accrue.
func (v *Volume) armGate(p *procState, r *Request) {
	if p.gateArmed {
		return
	}
	wait := sim.Duration(0)
	if p.bytesPerSec > 0 && p.bytesTokens < float64(r.Bytes) {
		need := (float64(r.Bytes) - p.bytesTokens) / p.bytesPerSec
		wait = sim.Duration(need * float64(sim.Second))
	}
	if p.opsPerSec > 0 && p.opsTokens < 1 {
		need := (1 - p.opsTokens) / p.opsPerSec
		if d := sim.Duration(need * float64(sim.Second)); d > wait {
			wait = d
		}
	}
	if wait < sim.Microsecond {
		wait = sim.Microsecond
	}
	p.gateArmed = true
	v.eng.After(wait, p.retry)
}

// admit puts a request in the device queue (priority order) and starts
// service if a drive is free.
func (v *Volume) admit(r *Request, p *procState) {
	r.priority = int32(p.priority)
	v.queue = append(v.queue, r)
	if v.busyDrives < v.cfg.Drives {
		v.startNext()
	}
}

// popBest removes the highest-priority (FIFO within priority) request.
func (v *Volume) popBest() *Request {
	if len(v.queue) == 0 {
		return nil
	}
	best := 0
	for i, r := range v.queue[1:] {
		idx := i + 1
		if r.priority > v.queue[best].priority ||
			(r.priority == v.queue[best].priority && r.seq < v.queue[best].seq) {
			best = idx
		}
	}
	r := v.queue[best]
	v.queue = append(v.queue[:best], v.queue[best+1:]...)
	return r
}

// serviceTime models one drive handling the request.
func (v *Volume) serviceTime(r *Request) sim.Duration {
	d := v.cfg.FixedOverhead
	if !r.Sequential {
		d += v.cfg.SeekTime
	}
	transfer := float64(r.Bytes) / v.cfg.PerDriveBandwidth
	return d + sim.Duration(transfer*float64(sim.Second))
}

func (v *Volume) startNext() {
	r := v.popBest()
	if r == nil {
		return
	}
	v.busyDrives++
	var d *ioDone
	if n := len(v.donePool); n > 0 {
		d = v.donePool[n-1]
		v.donePool = v.donePool[:n-1]
	} else {
		d = &ioDone{v: v}
		d.fn = d.fire
	}
	d.r = r
	v.eng.After(v.serviceTime(r), d.fn)
}

func (v *Volume) complete(r *Request) {
	now := v.eng.Now()
	p := r.proc
	p.stats.Ops++
	p.stats.Bytes += r.Bytes
	if r.Kind == OpRead {
		p.stats.ReadOps++
	} else {
		p.stats.WriteOps++
	}
	p.stats.QueueTime += now.Sub(r.enqueued)
	v.TotalOps++
	if r.OnComplete != nil {
		r.OnComplete()
	}
}

// Utilization reports the fraction of drive-time capacity in use right
// now (busy drives / drives).
func (v *Volume) Utilization() float64 {
	return float64(v.busyDrives) / float64(v.cfg.Drives)
}

// QueueDepth reports queued (not in-service) requests.
func (v *Volume) QueueDepth() int { return len(v.queue) }

func (v *Volume) String() string {
	return fmt.Sprintf("volume(%s: %d drives, %d queued)", v.cfg.Name, v.cfg.Drives, len(v.queue))
}
