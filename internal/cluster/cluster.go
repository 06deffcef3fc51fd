// Package cluster models the paper's production IndexServe deployments:
// the 75-machine evaluation cluster of §5.3/Fig. 9 as a full discrete-
// event simulation (every index server is a complete node with its own
// CPU, disks, OS, and PerfIso controller), and the 650-machine
// production run of Fig. 10 as a fluid model.
//
// Topology (Fig. 3): queries arrive at one of the top-level aggregators
// (TLAs, on machines separate from the index), which round-robin across
// the index rows. Each row holds a full partitioned copy of the index,
// one partition (column) per machine. The TLA picks one machine of the
// chosen row to act as mid-level aggregator (MLA) for the request; the
// MLA queries every machine in its row — including itself — aggregates
// the results on its own CPU, and returns the response to the TLA. The
// slowest column dictates the response time, which is why per-machine
// tail latency governs the end-to-end SLO.
package cluster

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/cpumodel"
	"perfiso/internal/indexserve"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/workload"
)

// Secondary selects the colocated batch workload of a cluster run
// (§6.2 evaluates CPU-bound and disk-bound secondaries).
type Secondary int

const (
	// NoSecondary is the standalone baseline (Fig. 9a).
	NoSecondary Secondary = iota
	// CPUSecondary colocates the CPU bully on every index machine
	// (Fig. 9b).
	CPUSecondary
	// DiskSecondary colocates the DiskSPD-style disk bully on the HDD
	// stripe of every index machine (Fig. 9c).
	DiskSecondary
)

func (s Secondary) String() string {
	switch s {
	case NoSecondary:
		return "standalone"
	case CPUSecondary:
		return "cpu-bound"
	case DiskSecondary:
		return "disk-bound"
	}
	return fmt.Sprintf("secondary(%d)", int(s))
}

// Config sizes the cluster. DefaultConfig reproduces §5.3; tests and
// benches shrink Columns/TLAs to keep event counts tractable.
type Config struct {
	// Columns is the number of index partitions per row (22 in §5.3).
	Columns int
	// Rows is the replication factor (2 in §5.3).
	Rows int
	// TLAs is the number of top-level aggregator machines (31 in §5.3).
	TLAs int
	// Node configures each index machine.
	Node node.Config
	// Seed derives all cluster randomness (per-node seeds, per-query
	// demand seeds, network jitter).
	Seed uint64

	// HopLatency is the one-way network latency per hop; HopJitter adds
	// a uniform random component. 10 GbE within a row of a data center.
	HopLatency sim.Duration
	HopJitter  sim.Duration

	// MLAAggCost is the CPU burst the MLA machine runs to merge the
	// column results; it executes on the MLA's own (shared) cores, so
	// interference there shows up at the MLA layer.
	MLAAggCost sim.Duration
	// TLAAggCost models the TLA machines' merge; TLAs are not colocated
	// with batch jobs, so this is a fixed service time.
	TLAAggCost sim.Duration

	// HDFS configures the per-machine HDFS tenant (§5.3: every index
	// machine runs an HDFS client because batch jobs rely on HDFS for
	// storage; the client takes up to 5% of CPU, §6.2). Nil disables
	// it.
	HDFS *workload.HDFSConfig
}

// DefaultConfig is the paper-scale 75-machine cluster: 22 columns × 2
// rows of index servers plus 31 TLAs.
func DefaultConfig() Config {
	hdfs := workload.DefaultHDFSConfig()
	return Config{
		Columns:    22,
		Rows:       2,
		TLAs:       31,
		Node:       node.DefaultConfig(),
		Seed:       1,
		HopLatency: 120 * sim.Microsecond,
		HopJitter:  60 * sim.Microsecond,
		MLAAggCost: 400 * sim.Microsecond,
		TLAAggCost: 300 * sim.Microsecond,
		HDFS:       &hdfs,
	}
}

// ScaledConfig returns a smaller cluster with the same structure, for
// tests and benchmarks: cols columns × 2 rows and 4 TLAs.
func ScaledConfig(cols int) Config {
	c := DefaultConfig()
	c.Columns = cols
	c.TLAs = 4
	return c
}

// TLA is one top-level aggregator machine. TLAs run on dedicated
// machines (no colocation), so they are modeled as a latency stage
// rather than a full node.
type TLA struct {
	// Latency records request→response times observed at this TLA.
	Latency *stats.Histogram
}

// IndexMachine is one index-serving node plus its colocation state.
type IndexMachine struct {
	Row, Column int
	Node        *node.Node
	// Controller is the PerfIso instance (nil when isolation is off).
	Controller *core.Controller
	// CPUBully / DiskBully are the colocated secondaries (nil unless
	// the scenario starts them).
	CPUBully  *workload.CPUBully
	DiskBully *workload.DiskBully
	// HDFS is the machine's storage tenant (nil when disabled).
	HDFS *workload.HDFS
	// MLALatency records aggregation times for requests where this
	// machine acted as MLA.
	MLALatency *stats.Histogram

	down bool
}

// Down reports whether the machine is marked failed.
func (m *IndexMachine) Down() bool { return m.down }

// Cluster is the assembled deployment.
type Cluster struct {
	Eng *sim.Engine
	cfg Config

	// Machines is indexed [row][column].
	Machines [][]*IndexMachine
	// TLAs are the aggregator front-ends.
	TLAs []*TLA

	// ServerLatency aggregates local IndexServe latency across all
	// machines ("measured at each server", §6.2).
	ServerLatency *stats.Histogram
	// MLALatency aggregates across machines acting as MLA.
	MLALatency *stats.Histogram
	// TLALatency aggregates end-to-end latency across TLAs.
	TLALatency *stats.Histogram

	// OnMachineDown and OnMachineRestore, when set, fire whenever a
	// machine's health changes (FailMachine / RestoreMachine). The
	// harvest scheduler subscribes to requeue tasks off dead machines.
	OnMachineDown    func(*IndexMachine)
	OnMachineRestore func(*IndexMachine)

	rng      *sim.RNG
	nextTLA  int
	nextRow  int
	nextMLA  []int // per-row MLA rotation
	nextQID  int
	inFlight int
	unserved uint64
	// Completed counts end-to-end responses delivered.
	Completed uint64

	// fanouts holds the query records no query is using (see fanout).
	fanouts []*fanout
}

// New assembles the cluster on eng. Every index machine is a full node
// simulation; TLAs are latency stages.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.Columns <= 0 || cfg.Rows <= 0 || cfg.TLAs <= 0 {
		panic(fmt.Sprintf("cluster: invalid topology %d×%d with %d TLAs", cfg.Columns, cfg.Rows, cfg.TLAs))
	}
	c := &Cluster{
		Eng:           eng,
		cfg:           cfg,
		rng:           sim.NewRNG(cfg.Seed ^ 0xc1a5),
		ServerLatency: stats.NewHistogram(),
		MLALatency:    stats.NewHistogram(),
		TLALatency:    stats.NewHistogram(),
		nextMLA:       make([]int, cfg.Rows),
	}
	for i := 0; i < cfg.TLAs; i++ {
		c.TLAs = append(c.TLAs, &TLA{Latency: stats.NewHistogram()})
	}
	for r := 0; r < cfg.Rows; r++ {
		var row []*IndexMachine
		for col := 0; col < cfg.Columns; col++ {
			ncfg := cfg.Node
			ncfg.Seed = cfg.Seed*1000003 + uint64(r*cfg.Columns+col)
			n := node.New(eng, ncfg)
			m := &IndexMachine{
				Row:        r,
				Column:     col,
				Node:       n,
				MLALatency: stats.NewHistogram(),
			}
			// Route every local response into the cluster-wide server
			// histogram; the fan-out's column slots collect their own.
			n.Server.OnResponse = func(resp indexserve.Response) {
				c.ServerLatency.AddDuration(resp.Latency)
			}
			if cfg.HDFS != nil {
				hcfg := *cfg.HDFS
				hcfg.Seed = ncfg.Seed ^ 0x4df5
				m.HDFS = workload.NewHDFS(eng, n.HDD, n.NIC, n.CPU, hcfg)
				m.HDFS.Start()
			}
			row = append(row, m)
		}
		c.Machines = append(c.Machines, row)
	}
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Size reports the number of simulated machines (index servers; TLAs
// are stages, not nodes).
func (c *Cluster) Size() int { return c.cfg.Rows * c.cfg.Columns }

// EachMachine visits every index machine.
func (c *Cluster) EachMachine(fn func(*IndexMachine)) {
	for _, row := range c.Machines {
		for _, m := range row {
			fn(m)
		}
	}
}

// MachineList returns every index machine in deterministic row-major
// order — the stable iteration order placement policies rely on for
// reproducible scheduling decisions.
func (c *Cluster) MachineList() []*IndexMachine {
	out := make([]*IndexMachine, 0, c.Size())
	c.EachMachine(func(m *IndexMachine) { out = append(out, m) })
	return out
}

// InstallPerfIso deploys a PerfIso controller with the given cluster
// configuration on every index machine, wrapping that machine's
// secondary processes, and starts it — the per-machine deployment of
// §4.2, minus the Autopilot ceremony (exercised in internal/core tests).
func (c *Cluster) InstallPerfIso(coreCfg core.Config) error {
	var err error
	c.EachMachine(func(m *IndexMachine) {
		if err != nil {
			return
		}
		ctrl, e := core.NewController(m.Node.OS, coreCfg)
		if e != nil {
			err = e
			return
		}
		m.Controller = ctrl
		ctrl.Start()
	})
	return err
}

// StartSecondary launches the selected batch workload on every index
// machine and, when PerfIso is installed, places it under management.
func (c *Cluster) StartSecondary(kind Secondary) {
	c.EachMachine(func(m *IndexMachine) { c.startSecondaryOn(m, kind) })
}

func (c *Cluster) startSecondaryOn(m *IndexMachine, kind Secondary) {
	switch kind {
	case NoSecondary:
	case CPUSecondary:
		if m.CPUBully != nil {
			m.CPUBully.Start()
			return
		}
		b := workload.NewCPUBully(m.Node.CPU, "bully", m.Node.CPU.Cores())
		b.Start()
		m.CPUBully = b
		if m.Controller != nil {
			m.Controller.ManageSecondary(b.Proc)
		}
	case DiskSecondary:
		if m.DiskBully != nil {
			return
		}
		cfg := workload.DefaultDiskBullyConfig()
		d := workload.NewDiskBully(m.Node.HDD, cfg)
		d.Start()
		m.DiskBully = d
	}
}

// hop returns one network-hop delay with jitter.
func (c *Cluster) hop() sim.Duration {
	d := c.cfg.HopLatency
	if c.cfg.HopJitter > 0 {
		d += sim.Duration(c.rng.Intn(int(c.cfg.HopJitter)))
	}
	return d
}

// Submit injects one user query at a TLA, driving the full
// TLA→MLA→row fan-out. Latency is recorded at every layer.
func (c *Cluster) Submit() {
	tla := c.TLAs[c.nextTLA%len(c.TLAs)]
	c.nextTLA++
	row, ok := c.pickRow()
	if !ok {
		// Total outage: every row has a failed column.
		c.unserved++
		return
	}
	mlaIdx := c.nextMLA[row] % c.cfg.Columns
	c.nextMLA[row]++

	c.nextQID++
	c.inFlight++
	f := c.newFanout()
	f.tla = tla
	f.row = row
	f.mlaIdx = mlaIdx
	f.mla = c.Machines[row][mlaIdx]
	f.qid = c.nextQID
	f.tlaStart = c.Eng.Now()

	// TLA → MLA hop.
	c.Eng.After(c.hop(), f.onMLA)
}

// fanout is the record of one user query's trip through the cluster:
// the TLA→MLA hop, the MLA's fan-out to every column of its row, the
// column replies, the aggregation burst on the MLA, and the MLA→TLA
// hop with the TLA's merge. Records are pooled per cluster. A record
// binds its callbacks once, when it is made, and has one column slot
// per column whose callbacks are bound then too. Submit takes a record
// from Cluster.fanouts, and merged — the last callback of the query —
// returns it: by then every hop has arrived, every column has replied
// and the aggregation burst has finished, so nothing can call back
// into it.
type fanout struct {
	c        *Cluster
	tla      *TLA
	row      int
	mlaIdx   int
	mla      *IndexMachine
	qid      int
	tlaStart sim.Time
	mlaStart sim.Time
	// remaining counts the columns whose replies have not reached the
	// MLA yet.
	remaining int
	cols      []*column

	// Callbacks bound once per record.
	onMLA, onAggregated, onMerged func()
}

// column is a fanout's slot for one column of the chosen row.
type column struct {
	f      *fanout
	target *IndexMachine
	local  bool // the MLA's own column: no network hops
	seed   uint64

	// Callbacks bound once per slot: deliver submits the query to the
	// column's server, respond takes its reply, and arrive counts the
	// reply in at the MLA.
	deliver func()
	respond func(indexserve.Response)
	arrive  func()
}

// newFanout takes a record from the pool, or makes one and binds its
// callbacks.
func (c *Cluster) newFanout() *fanout {
	if n := len(c.fanouts); n > 0 {
		f := c.fanouts[n-1]
		c.fanouts = c.fanouts[:n-1]
		return f
	}
	f := &fanout{c: c, cols: make([]*column, c.cfg.Columns)}
	f.onMLA = f.reachMLA
	f.onAggregated = f.aggregated
	f.onMerged = f.merged
	for i := range f.cols {
		col := &column{f: f}
		col.deliver = col.submit
		col.respond = col.reply
		col.arrive = col.arrived
		f.cols[i] = col
	}
	return f
}

// reachMLA runs when the query reaches its MLA: it fans the query out
// to every column of the row. The local column skips the network.
func (f *fanout) reachMLA() {
	c := f.c
	f.mlaStart = c.Eng.Now()
	f.remaining = c.cfg.Columns
	for i, col := range f.cols {
		col.local = i == f.mlaIdx
		col.target = c.Machines[f.row][i]
		col.seed = querySeed(c.cfg.Seed, f.qid, f.row, i)
		if col.local {
			col.submit()
		} else {
			c.Eng.After(c.hop(), col.deliver)
		}
	}
}

// submit hands the query to the column's server.
func (col *column) submit() {
	col.target.Node.Server.SubmitObserved(workload.QuerySpec{ID: col.f.qid, Seed: col.seed}, col.respond)
}

// reply sends the column's response back to the MLA.
func (col *column) reply(indexserve.Response) {
	if col.local {
		col.arrived()
	} else {
		col.f.c.Eng.After(col.f.c.hop(), col.arrive)
	}
}

// arrived counts a column's response in at the MLA; the last one starts
// the aggregation burst on the MLA machine's own CPU.
func (col *column) arrived() {
	f := col.f
	f.remaining--
	if f.remaining == 0 {
		cpu := f.mla.Node.CPU
		cpu.SpawnDetached(f.mla.Node.Server.Proc, f.c.cfg.MLAAggCost, cpumodel.AllCores(cpu.Cores()), f.onAggregated)
	}
}

// aggregated records the MLA latency and sends the result to the TLA:
// the MLA → TLA hop, then the TLA's own merge.
func (f *fanout) aggregated() {
	c := f.c
	agg := c.Eng.Now().Sub(f.mlaStart)
	f.mla.MLALatency.AddDuration(agg)
	c.MLALatency.AddDuration(agg)
	c.Eng.After(c.hop()+c.cfg.TLAAggCost, f.onMerged)
}

// merged records the end-to-end latency and returns the record to the
// pool.
func (f *fanout) merged() {
	c := f.c
	e2e := c.Eng.Now().Sub(f.tlaStart)
	f.tla.Latency.AddDuration(e2e)
	c.TLALatency.AddDuration(e2e)
	c.inFlight--
	c.Completed++
	c.fanouts = append(c.fanouts, f)
}

func querySeed(base uint64, qid, row, col int) uint64 {
	x := base ^ uint64(qid)*0x9e3779b97f4a7c15 ^ uint64(row)<<32 ^ uint64(col)<<48
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// Result summarizes a cluster run at the paper's three measurement
// points (§6.2: "at each server, at each layer, and end-to-end").
type Result struct {
	// Secondary names the colocation scenario.
	Secondary string
	// Server, MLA and TLA are latency summaries per layer.
	Server stats.LatencySummary
	MLA    stats.LatencySummary
	TLA    stats.LatencySummary
	// AvgCPUUsedPct is machine-average non-idle CPU over the measured
	// window.
	AvgCPUUsedPct float64
	// AvgSecondaryPct is machine-average secondary CPU share.
	AvgSecondaryPct float64
	// DropRate is the machine-average local drop rate.
	DropRate float64
}

// ResetMeasurement clears every latency histogram and utilization
// account (warmup boundary).
func (c *Cluster) ResetMeasurement() {
	c.ServerLatency.Reset()
	c.MLALatency.Reset()
	c.TLALatency.Reset()
	for _, t := range c.TLAs {
		t.Latency.Reset()
	}
	c.EachMachine(func(m *IndexMachine) {
		m.MLALatency.Reset()
		m.Node.ResetMeasurement()
	})
}

// Run replays queries Poisson arrivals at the given cluster-wide rate,
// discarding the first warmup queries, and runs the simulation until
// the trace drains. It returns the per-layer summary.
func (c *Cluster) Run(queries, warmup int, rate float64, seed uint64) Result {
	if queries <= warmup {
		panic("cluster: warmup consumes the whole trace")
	}
	last := c.replay(queries, warmup, rate, seed, c.ResetMeasurement, c.Submit)
	// Drain: every query resolves within the deadline plus aggregation
	// and hops; one extra second is ample.
	c.Eng.Run(last.Add(sim.Duration(c.cfg.Node.IndexServe.Deadline) + sim.Second))
	return c.Summarize()
}

// replay schedules queries Poisson arrivals at the given rate from now,
// calling submit at each and reset just before the warmup-th, and
// returns the last arrival time. Each arrival is drawn when its
// predecessor plans it, so the trace is never held in memory; the
// last arrival comes from a pre-pass over a copy of the generator,
// which leaves the original where it stands.
func (c *Cluster) replay(queries, warmup int, rate float64, seed uint64, reset, submit func()) sim.Time {
	rng := sim.SeededRNG(seed)
	meanGap := sim.Duration(float64(sim.Second) / rate)
	pre, last := rng, c.Eng.Now()
	for i := 0; i < queries; i++ {
		last = last.Add(pre.ExpDuration(meanGap))
	}
	// Stream the trace through an Agenda: reserving queries+1 FIFO
	// positions here (the +1 is the measurement reset at the warmup
	// boundary, which must keep its place before the warmup-th arrival)
	// makes the chained replay order-identical to scheduling every
	// arrival up front, while the event heap stays shallow.
	agenda := c.Eng.NewAgenda(queries + 1)
	// One cursor callback serves the whole trace: each arrival plans its
	// successor before submitting itself.
	next, at := 0, c.Eng.Now()
	var arrive func()
	plan := func() {
		at = at.Add(rng.ExpDuration(meanGap))
		if next == warmup {
			agenda.At(at, reset)
		}
		agenda.At(at, arrive)
	}
	arrive = func() {
		next++
		if next < queries {
			plan()
		}
		submit()
	}
	plan()
	return last
}

// Summarize collects the current per-layer measurements.
func (c *Cluster) Summarize() Result {
	var used, sec, drop float64
	n := 0
	secondary := NoSecondary
	c.EachMachine(func(m *IndexMachine) {
		b := m.Node.CPU.Breakdown()
		used += b.UsedPct()
		sec += b.SecondaryPct
		drop += m.Node.Server.DropRate()
		n++
		if m.CPUBully != nil {
			secondary = CPUSecondary
		} else if m.DiskBully != nil {
			secondary = DiskSecondary
		}
	})
	return Result{
		Secondary:       secondary.String(),
		Server:          c.ServerLatency.Summary(),
		MLA:             c.MLALatency.Summary(),
		TLA:             c.TLALatency.Summary(),
		AvgCPUUsedPct:   used / float64(n),
		AvgSecondaryPct: sec / float64(n),
		DropRate:        drop / float64(n),
	}
}

// InFlight reports cluster-level queries not yet answered at the TLA.
func (c *Cluster) InFlight() int { return c.inFlight }

// FailMachine marks one index machine as down (the §1 motivation:
// deployments must keep serving through machine and data-center
// failures). Down machines are excluded from TLA routing: requests go
// to rows whose columns are all healthy, so a single failure removes
// its whole row from rotation — exactly why the index is replicated
// row-wise. The machine's simulation keeps running (its tenants don't
// know), but no new queries reach it.
func (c *Cluster) FailMachine(row, col int) {
	m := c.machineAt(row, col)
	if m.down {
		return
	}
	m.down = true
	if c.OnMachineDown != nil {
		c.OnMachineDown(m)
	}
}

// RestoreMachine returns a failed machine to service.
func (c *Cluster) RestoreMachine(row, col int) {
	m := c.machineAt(row, col)
	if !m.down {
		return
	}
	m.down = false
	if c.OnMachineRestore != nil {
		c.OnMachineRestore(m)
	}
}

func (c *Cluster) machineAt(row, col int) *IndexMachine {
	if row < 0 || row >= c.cfg.Rows || col < 0 || col >= c.cfg.Columns {
		panic(fmt.Sprintf("cluster: no machine at row %d col %d", row, col))
	}
	return c.Machines[row][col]
}

// rowHealthy reports whether every column of a row is in service.
func (c *Cluster) rowHealthy(row int) bool {
	for _, m := range c.Machines[row] {
		if m.down {
			return false
		}
	}
	return true
}

// pickRow chooses the next healthy row round-robin; ok is false when
// no row can serve (total outage).
func (c *Cluster) pickRow() (int, bool) {
	for i := 0; i < c.cfg.Rows; i++ {
		row := c.nextRow % c.cfg.Rows
		c.nextRow++
		if c.rowHealthy(row) {
			return row, true
		}
	}
	return 0, false
}

// Unserved counts queries that arrived during a total outage.
func (c *Cluster) Unserved() uint64 { return c.unserved }
