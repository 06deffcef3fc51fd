package indexserve

import (
	"perfiso/internal/cpumodel"
	"perfiso/internal/diskmodel"
	"perfiso/internal/netmodel"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// Config calibrates the service. DefaultConfig reproduces the paper's
// standalone profile on the 48-core machine model.
type Config struct {
	// WorkersMin/Max bound the per-query matcher burst (§2.1: up to 15
	// threads ready within 5 µs).
	WorkersMin, WorkersMax int
	// BurstSpread is the window within which the burst's threads wake.
	BurstSpread sim.Duration

	// DominantMedian/Sigma shape the log-normal demand of the query's
	// dominant matcher, which determines standalone latency.
	DominantMedian sim.Duration
	DominantSigma  float64
	// HelperMedian/Sigma shape the remaining matchers: short bursts
	// that create the thread-wakeup spike without dominating latency.
	HelperMedian sim.Duration
	HelperSigma  float64
	// RankCost is the serial aggregation/ranking stage after matching.
	RankCost sim.Duration

	// Deadline drops a query that has not completed (timeouts in §6.1.2
	// show up as latency capped near 350 ms).
	Deadline sim.Duration

	// SpecCheckpoint triggers compensation: a query still running at
	// arrival+SpecCheckpoint spawns SpecWorkers extra bursts of
	// SpecBurst each. They never gate completion — pure added load.
	SpecCheckpoint sim.Duration
	SpecWorkers    int
	SpecBurst      sim.Duration
	// SpecInFlightCap disables compensation while more than this many
	// queries are in flight: target-driven parallelism predicts that
	// extra workers cannot help a saturated machine, which is what
	// keeps the mechanism from cascading under overload. Zero means no
	// cap.
	SpecInFlightCap int

	// CacheMissProb is the chance a matcher needs an index read from
	// SSD before computing; MissReadBytes is the read size.
	CacheMissProb float64
	MissReadBytes int64
	// LogBytes is written per completed query to the (shared) HDD
	// volume, asynchronously.
	LogBytes int64
	// ResponseBytes is the egress size of a completed query's reply,
	// sent at high priority through the machine's NIC when one is
	// attached (the traffic PerfIso's egress deprioritization protects,
	// §3.2). Zero disables response traffic.
	ResponseBytes int64
}

// DefaultConfig returns the calibrated IndexServe profile.
func DefaultConfig() Config {
	return Config{
		WorkersMin:     4,
		WorkersMax:     15,
		BurstSpread:    5 * sim.Microsecond,
		DominantMedian: 3500 * sim.Microsecond,
		DominantSigma:  0.50,
		HelperMedian:   60 * sim.Microsecond,
		HelperSigma:    0.80,
		RankCost:       250 * sim.Microsecond,
		Deadline:       350 * sim.Millisecond,
		SpecCheckpoint: 8 * sim.Millisecond,
		// Compensation adds ~37% of a query's mean cost when it falls
		// behind — enough to reproduce the primary-CPU rise of Fig. 4b
		// without cascading into instability at peak load (TPC-style
		// re-parallelization helps the query, it does not double it).
		SpecWorkers:     3,
		SpecBurst:       600 * sim.Microsecond,
		SpecInFlightCap: 64,
		CacheMissProb:   0.15,
		MissReadBytes:   64 << 10,
		LogBytes:        4 << 10,
		ResponseBytes:   24 << 10,
	}
}

// Response describes one finished (or dropped) query.
type Response struct {
	ID      int
	Latency sim.Duration
	Dropped bool
}

// Server is one IndexServe instance bound to a machine.
type Server struct {
	cfg Config
	eng *sim.Engine
	cpu *cpumodel.Machine
	// Proc is the service process; it always runs unrestricted.
	Proc *cpumodel.Process
	// SSD holds the index slice (exclusive); HDD receives logs (shared
	// with the secondary). Either may be nil to disable disk modeling.
	SSD *diskmodel.Volume
	HDD *diskmodel.Volume

	// Latency records every query, with drops capped at the deadline —
	// matching how the paper's P99 saturates at ≈349 ms.
	Latency   *stats.Histogram
	Completed uint64
	Dropped   uint64
	// OnResponse, when set, observes every query outcome (the cluster
	// aggregators hook in here).
	OnResponse func(Response)
	// OnRecord, when set, receives the critical-path forensic record of
	// every finished query (completed or dropped). Like OnResponse it
	// is a pure observer: the record is derived from bookkeeping the
	// server maintains anyway, so installing it changes no outcome.
	OnRecord func(simtrace.QueryRecord)

	nic      *netmodel.NIC
	trace    *simtrace.Tracer
	inFlight int
	all      cpumodel.CPUSet // every core: no query thread is pinned

	// deadlineLane and specLane are the engine's fixed-delay lanes for
	// Config.Deadline and Config.SpecCheckpoint (see query.deadline).
	deadlineLane *sim.Delay
	specLane     *sim.Delay

	// free holds query records ready for reuse (records counts every
	// record made); reads, logs and replies hold the SSD index reads,
	// HDD log writes and NIC reply packets no I/O is using. All four
	// grow to their peak in-flight count and are then recycled, so the
	// steady-state query path allocates nothing.
	free    []*query
	records int
	reads   []*diskmodel.Request
	logs    []*diskmodel.Request
	replies []*netmodel.Packet
}

// SetSimTracer attaches a sim-domain tracer capturing query lifecycle
// spans and milestones (nil detaches).
func (s *Server) SetSimTracer(tr *simtrace.Tracer) { s.trace = tr }

// AttachNIC routes completed-query replies through the machine's
// egress NIC at high priority. Response transmission is asynchronous
// and does not gate the recorded query latency (the paper measures
// service time; the NIC protects throughput).
func (s *Server) AttachNIC(nic *netmodel.NIC) { s.nic = nic }

// query is the record of one query. Records are pooled per server: a
// record binds its callbacks once, when it is first made, and returns
// to Server.free when the query is done and refs is zero — that is,
// when nothing can call back into it. finish cancels the query's
// threads and its deadline and spec timers, so only the callbacks refs
// counts can still arrive after it.
type query struct {
	s        *Server
	id       int
	arrival  sim.Time
	rng      sim.RNG
	threads  []*cpumodel.Thread
	observer func(Response)
	// deadline and spec are cancelled at finish; both events were pure
	// no-ops once done was set, so cancelling them changes no outcome.
	// A cancelled entry still waits in the event queue until it
	// surfaces: a 350 ms deadline cancelled after a 4 ms query stays
	// queued for the rest of its delay, so at 4000 QPS about 1,400 of
	// them are always pending. Both timers therefore live in fixed-delay
	// lanes (Server.deadlineLane, Server.specLane), off the event heap,
	// which drop a cancelled entry once every timer armed before it on
	// the lane has fired or been cancelled.
	deadline sim.Timer
	spec     sim.Timer

	// Per-matcher forensic bookkeeping. The first k worker slots belong
	// to this query; slots beyond k are kept from earlier, wider
	// queries. critical is the index of the worker whose completion
	// released ranking (-1 until known); rank is the serial aggregation
	// thread.
	workers []*qworker
	rank    *cpumodel.Thread

	// Callbacks bound once per record.
	onDeadline, onSpec, onRanked func()

	// The counters are int32 so that they share the last two words with
	// done, which keeps the record at 176 bytes (TestRecordSizeClasses).
	outstanding int32
	// refs counts the record's wake events that have not fired and its
	// SSD reads in flight. A deadline drop can leave a read queued on a
	// slow SSD; recycling the record before it completes would start a
	// matcher for whichever query held the record next.
	refs     int32
	k        int32
	critical int32
	done     bool
}

// qworker tracks one matcher burst for critical-path attribution.
// The wake event fires exactly at planned, and a cache miss submits
// its SSD read in that same event, so started-planned is precisely
// the disk gate and planned-arrival the deliberate wake spread.
type qworker struct {
	q       *query
	demand  sim.Duration
	t       *cpumodel.Thread // nil until the burst is spawned
	planned sim.Time
	started sim.Time
	// read is the slot's SSD index read while one is in flight.
	read *diskmodel.Request
	// step is advance bound once: the wake event, the read's
	// completion and the thread's OnDone all call it.
	step func()
	// The small fields share the last word, which keeps the slot at
	// 64 bytes (TestRecordSizeClasses).
	idx      int32
	phase    workerPhase
	miss     bool
	finished bool
}

// workerPhase is where a matcher slot stands; advance moves it along.
type workerPhase uint8

const (
	phaseWake workerPhase = iota // wake event pending
	phaseRead                    // SSD index read in flight
	phaseRun                     // matcher thread spawned
)

// New binds a server to a machine. ssd and hdd may be nil.
func New(m *cpumodel.Machine, cfg Config, ssd, hdd *diskmodel.Volume) *Server {
	if cfg.WorkersMin < 1 || cfg.WorkersMax < cfg.WorkersMin {
		panic("indexserve: invalid worker bounds")
	}
	if cfg.Deadline <= 0 {
		panic("indexserve: non-positive deadline")
	}
	eng := m.Engine()
	s := &Server{
		cfg:          cfg,
		eng:          eng,
		cpu:          m,
		Proc:         m.NewProcess("indexserve", stats.ClassPrimary),
		SSD:          ssd,
		HDD:          hdd,
		Latency:      stats.NewHistogram(),
		all:          cpumodel.AllCores(m.Cores()),
		deadlineLane: eng.NewDelay(cfg.Deadline),
	}
	if cfg.SpecWorkers > 0 {
		s.specLane = eng.NewDelay(cfg.SpecCheckpoint)
	}
	return s
}

// Config returns the server's calibration.
func (s *Server) Config() Config { return s.cfg }

// InFlight reports queries currently being processed.
func (s *Server) InFlight() int { return s.inFlight }

// DropRate reports the fraction of queries dropped so far.
func (s *Server) DropRate() float64 {
	total := s.Completed + s.Dropped
	if total == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(total)
}

// Submit starts processing a query now. The spec's seed makes its
// demand draw reproducible across runs and policies.
func (s *Server) Submit(spec workload.QuerySpec) { s.SubmitObserved(spec, nil) }

// SubmitObserved processes a query and additionally delivers its
// outcome to fn; the cluster MLAs use this to collect fan-out
// responses without sharing the server-wide OnResponse hook.
func (s *Server) SubmitObserved(spec workload.QuerySpec, fn func(Response)) {
	q := s.newQuery()
	q.id = spec.ID
	q.arrival = s.eng.Now()
	q.rng = sim.SeededRNG(spec.Seed)
	q.observer = fn
	q.done = false
	q.critical = -1
	s.inFlight++

	k := q.rng.IntBetween(s.cfg.WorkersMin, s.cfg.WorkersMax)
	q.outstanding = int32(k)
	q.k = int32(k)
	for len(q.workers) < k {
		w := &qworker{q: q, idx: int32(len(q.workers))}
		w.step = w.advance
		q.workers = append(q.workers, w)
	}
	if s.trace != nil {
		s.trace.Begin(q.arrival, q.id, "query", "query",
			simtrace.Int("workers", k))
	}

	for i, w := range q.workers[:k] {
		w.demand = s.workerDemand(q, i)
		wake := sim.Duration(0)
		if k > 1 {
			wake = s.cfg.BurstSpread * sim.Duration(i) / sim.Duration(k)
		}
		w.phase = phaseWake
		w.planned = q.arrival.Add(wake)
		w.finished = false
		w.miss = s.SSD != nil && q.rng.Float64() < s.cfg.CacheMissProb
		q.refs++
		s.eng.After(wake, w.step)
	}

	// Deadline: unanswered queries are dropped and their workers
	// abandoned.
	q.deadline = s.deadlineLane.After(q.onDeadline)

	// Compensation checkpoint (target-driven parallelism).
	if s.cfg.SpecWorkers > 0 {
		q.spec = s.specLane.After(q.onSpec)
	}
}

func (s *Server) workerDemand(q *query, i int) sim.Duration {
	if i == 0 {
		return q.rng.LogNormalDuration(s.cfg.DominantMedian, s.cfg.DominantSigma)
	}
	return q.rng.LogNormalDuration(s.cfg.HelperMedian, s.cfg.HelperSigma)
}

// newQuery takes a record from the pool, or makes one, binds its
// callbacks and sizes its slices for the widest query: WorkersMax
// matchers, plus the rank thread and the speculative workers among
// its threads.
func (s *Server) newQuery() *query {
	if n := len(s.free); n > 0 {
		q := s.free[n-1]
		s.free = s.free[:n-1]
		return q
	}
	s.records++
	q := &query{
		s:       s,
		workers: make([]*qworker, 0, s.cfg.WorkersMax),
		threads: make([]*cpumodel.Thread, 0, s.cfg.WorkersMax+1+s.cfg.SpecWorkers),
	}
	q.onDeadline = q.deadlineFired
	q.onSpec = q.specFired
	q.onRanked = q.ranked
	return q
}

// deadlineFired drops the query if it is still unanswered.
func (q *query) deadlineFired() {
	if q.done {
		return
	}
	q.s.finish(q, true)
}

// specFired is the compensation checkpoint: a query still running
// spawns its speculative workers unless too many queries are in flight.
func (q *query) specFired() {
	s := q.s
	if q.done {
		return
	}
	if s.cfg.SpecInFlightCap > 0 && s.inFlight > s.cfg.SpecInFlightCap {
		return
	}
	if s.trace != nil {
		s.trace.Instant(s.eng.Now(), simtrace.TrackControl, "spec-checkpoint", "query",
			simtrace.Int("query", q.id))
	}
	for i := 0; i < s.cfg.SpecWorkers; i++ {
		t := s.cpu.Spawn(s.Proc, s.cfg.SpecBurst, s.all, nil)
		q.threads = append(q.threads, t)
	}
}

// ranked completes the query once its ranking stage finishes.
func (q *query) ranked() {
	if q.done {
		return
	}
	q.s.finish(q, false)
}

// advance moves the matcher slot through its phases. The wake event
// submits the index read on a cache miss and otherwise spawns the
// matcher; the read's completion spawns it; the matcher's completion
// releases ranking once it is the query's last.
func (w *qworker) advance() {
	q := w.q
	s := q.s
	if w.phase == phaseRun {
		if q.done {
			return
		}
		w.finished = true
		q.outstanding--
		if q.outstanding == 0 {
			q.critical = w.idx
			s.rank(q)
		}
		return
	}
	q.refs--
	if w.phase == phaseRead {
		s.reads = append(s.reads, w.read)
		w.read = nil
	}
	if q.done {
		s.recycle(q)
		return
	}
	if w.phase == phaseWake && w.miss {
		// Index read gates this matcher's start.
		w.read = s.indexRead()
		w.read.OnComplete = w.step
		w.phase = phaseRead
		q.refs++
		s.SSD.Submit(w.read)
		return
	}
	w.phase = phaseRun
	w.t = s.cpu.Spawn(s.Proc, w.demand, s.all, w.step)
	w.started = s.eng.Now()
	q.threads = append(q.threads, w.t)
}

// rank runs the serial aggregation stage, after which the query
// completes.
func (s *Server) rank(q *query) {
	t := s.cpu.Spawn(s.Proc, s.cfg.RankCost, s.all, q.onRanked)
	q.rank = t
	q.threads = append(q.threads, t)
}

func (s *Server) finish(q *query, dropped bool) {
	q.done = true
	s.inFlight--
	// Revoke the pending deadline/compensation events; each would be a
	// no-op now that done is set, so cancellation changes no outcome.
	// (When finish IS the deadline firing, its own Cancel is a no-op.)
	s.eng.Cancel(q.deadline)
	s.eng.Cancel(q.spec)
	for _, t := range q.threads {
		s.cpu.Cancel(t)
	}
	latency := s.eng.Now().Sub(q.arrival)
	if dropped {
		latency = s.cfg.Deadline
		s.Dropped++
	} else {
		s.Completed++
	}
	s.Latency.AddDuration(latency)
	if !dropped && s.HDD != nil && s.cfg.LogBytes > 0 {
		s.HDD.Submit(s.logWrite())
	}
	if !dropped && s.nic != nil && s.cfg.ResponseBytes > 0 {
		s.nic.Send(s.reply())
	}
	if s.OnRecord != nil {
		s.OnRecord(s.forensics(q, latency, dropped))
	}
	if s.trace != nil {
		s.trace.End(s.eng.Now(), q.id, "query", "query",
			simtrace.Bool("dropped", dropped), simtrace.Int("latency_us", int(latency/sim.Microsecond)))
	}
	resp := Response{ID: q.id, Latency: latency, Dropped: dropped}
	if s.OnResponse != nil {
		s.OnResponse(resp)
	}
	if q.observer != nil {
		q.observer(resp)
	}
	s.recycle(q)
}

// recycle returns a finished record to the pool once refs is zero. It
// releases every thread the query spawned — matchers, rank and
// speculative workers, all Done since finish cancelled them — and
// drops the record's references to them.
func (s *Server) recycle(q *query) {
	if q.refs > 0 {
		return
	}
	for _, t := range q.threads {
		s.cpu.Release(t)
	}
	clear(q.threads)
	q.threads = q.threads[:0]
	for _, w := range q.workers[:q.k] {
		w.t = nil
	}
	q.rank = nil
	s.free = append(s.free, q)
}

// indexRead returns a pooled SSD index read; the matcher slot that
// submits it returns it to the pool when the read completes.
func (s *Server) indexRead() *diskmodel.Request {
	if n := len(s.reads); n > 0 {
		r := s.reads[n-1]
		s.reads = s.reads[:n-1]
		return r
	}
	return &diskmodel.Request{
		Proc:       s.Proc.Name,
		Kind:       diskmodel.OpRead,
		Bytes:      s.cfg.MissReadBytes,
		Sequential: false,
	}
}

// logWrite returns a pooled HDD log write; it rejoins the pool when
// the write completes.
func (s *Server) logWrite() *diskmodel.Request {
	if n := len(s.logs); n > 0 {
		r := s.logs[n-1]
		s.logs = s.logs[:n-1]
		return r
	}
	r := &diskmodel.Request{
		Proc:       s.Proc.Name,
		Kind:       diskmodel.OpWrite,
		Bytes:      s.cfg.LogBytes,
		Sequential: true,
	}
	r.OnComplete = func() { s.logs = append(s.logs, r) }
	return r
}

// reply returns a pooled high-priority reply packet; it rejoins the
// pool once sent.
func (s *Server) reply() *netmodel.Packet {
	if n := len(s.replies); n > 0 {
		p := s.replies[n-1]
		s.replies = s.replies[:n-1]
		return p
	}
	p := &netmodel.Packet{
		Proc:  s.Proc.Name,
		Class: netmodel.PriorityHigh,
		Bytes: s.cfg.ResponseBytes,
	}
	p.OnSent = func() { s.replies = append(s.replies, p) }
	return p
}

// forensics decomposes the query's latency along its critical path.
// Called after the query's threads were cancelled, so every in-flight
// run/wait interval has been charged to its thread's accumulators and
// each thread's forensic partition covers spawn-to-end exactly.
func (s *Server) forensics(q *query, latency sim.Duration, dropped bool) simtrace.QueryRecord {
	rec := simtrace.QueryRecord{ID: q.id, Dropped: dropped, Latency: latency}
	// The critical worker: for completed queries (and drops that reached
	// ranking) the matcher whose completion released the rank stage; for
	// earlier drops the first still-unfinished matcher — every
	// unfinished matcher spans the whole latency window, so index order
	// is a deterministic and exact choice.
	idx := int(q.critical)
	if idx < 0 {
		for i, w := range q.workers[:q.k] {
			if !w.finished {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		// No unfinished matcher and ranking never started: nothing to
		// attribute beyond the residual (cannot happen in practice).
		rec.Other = latency
		return rec
	}
	w := q.workers[idx]
	rec.Spread = w.planned.Sub(q.arrival)
	if w.t != nil {
		rec.Disk = w.started.Sub(w.planned)
		run, queue, harvest, evict, parked := w.t.ForensicTimes()
		rec.Service += run
		rec.Queue += queue
		rec.Harvest += harvest
		rec.Evict += evict
		rec.Throttle += parked
	} else {
		// Dropped while still gated on the index read: the whole
		// remainder is disk wait.
		rec.Disk = q.arrival.Add(latency).Sub(w.planned)
	}
	if q.rank != nil {
		run, queue, harvest, evict, parked := q.rank.ForensicTimes()
		rec.Service += run
		rec.Queue += queue
		rec.Harvest += harvest
		rec.Evict += evict
		rec.Throttle += parked
	}
	rec.Other = latency - rec.Attributed()
	return rec
}
