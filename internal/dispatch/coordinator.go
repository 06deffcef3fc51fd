package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
	"perfiso/internal/shard"
)

// Defaults for Options zero values.
const (
	DefaultLeaseTTL    = 15 * time.Second
	DefaultMaxAttempts = 3
	DefaultWaitHint    = 500 * time.Millisecond
)

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL is how long a claimed unit may go without a heartbeat
	// before it requeues. Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per unit; a unit requeued after
	// its MaxAttempts-th grant is poisoned and fails the run. Zero
	// means DefaultMaxAttempts.
	MaxAttempts int
	// WaitHint is the retry delay told to workers when nothing is
	// claimable. Zero means DefaultWaitHint.
	WaitHint time.Duration
	// Log, when set, receives one structured record per scheduling
	// event (claim, upload, requeue, stale upload, failure), carrying
	// worker/unit/lease fields so fleet logs are greppable by unit.
	Log *slog.Logger
	// Tracer, when set, collects one span per completed unit so a
	// dispatched run can be reassembled into a run-wide trace.
	Tracer *obs.TraceBuffer

	// now substitutes the clock in tests.
	now func() time.Time
}

type unitStatus int

const (
	unitPending unitStatus = iota
	unitLeased
	unitDone
)

// unitState is the coordinator's book-keeping for one unit.
type unitState struct {
	unit      experiments.Unit
	status    unitStatus
	attempts  int       // lease grants so far
	worker    string    // current lease holder when leased
	expires   time.Time // lease deadline when leased
	last      string    // previous holder, for steal accounting
	claimedAt time.Time // when the winning lease was granted
	uploader  string    // worker whose result was accepted
	cell      shard.PartialCell
}

// Coordinator owns a manifest's unit queue and lease table and speaks
// the package protocol over Handler. It never executes anything
// itself.
type Coordinator struct {
	opts     Options
	manifest shard.Manifest

	mu        sync.Mutex
	states    []*unitState
	byID      map[string]int
	costOrder []int // state indices, expensive first
	doneCount int
	workers   map[string]*experiments.DispatchWorker
	requeues  int
	steals    int
	stale     int
	poisoned  []string
	failure   error
	started   time.Time
	done      chan struct{}
}

// NewCoordinator builds a coordinator serving the manifest's units.
func NewCoordinator(m shard.Manifest, opts Options) (*Coordinator, error) {
	units, err := m.Units()
	if err != nil {
		return nil, err
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.WaitHint <= 0 {
		opts.WaitHint = DefaultWaitHint
	}
	if opts.now == nil {
		opts.now = time.Now //perfiso:allow walltime lease clock; tests inject a fake
	}
	c := &Coordinator{
		opts:      opts,
		manifest:  m,
		states:    make([]*unitState, len(units)),
		byID:      make(map[string]int, len(units)),
		costOrder: experiments.CostOrder(units),
		workers:   map[string]*experiments.DispatchWorker{},
		started:   opts.now(),
		done:      make(chan struct{}),
	}
	for i, u := range units {
		c.states[i] = &unitState{unit: u}
		c.byID[u.ID] = i
	}
	if len(units) == 0 {
		close(c.done) // an empty manifest is already complete
	}
	return c, nil
}

func (c *Coordinator) log(msg string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log.Info(msg, args...)
	}
}

// worker returns the accounting row for name, creating it on first
// contact. Caller holds mu.
func (c *Coordinator) worker(name string) *experiments.DispatchWorker {
	w, ok := c.workers[name]
	if !ok {
		w = &experiments.DispatchWorker{Worker: name}
		c.workers[name] = w
	}
	return w
}

// reap requeues every expired lease and poisons units out of attempts.
// Caller holds mu.
func (c *Coordinator) reap(now time.Time) {
	if c.failure != nil {
		return
	}
	for _, s := range c.states {
		if s.status != unitLeased || now.Before(s.expires) {
			continue
		}
		c.requeues++
		c.worker(s.worker).Requeues++
		s.last = s.worker
		s.worker = ""
		s.status = unitPending
		c.log("lease expired, unit requeued",
			"unit", s.unit.ID, "worker", s.last, "attempt", s.attempts, "lease", c.opts.LeaseTTL)
		if s.attempts >= c.opts.MaxAttempts {
			c.poisoned = append(c.poisoned, s.unit.ID)
		}
	}
	if len(c.poisoned) > 0 {
		c.failure = fmt.Errorf("dispatch: %d unit(s) exhausted %d attempts: %s",
			len(c.poisoned), c.opts.MaxAttempts, strings.Join(c.poisoned, ", "))
		c.log("run failed", "error", c.failure.Error())
		close(c.done)
	}
}

// Reap requeues expired leases and poisons exhausted units without
// waiting for worker traffic. The claim and heartbeat handlers reap on
// every request, which covers any run with a live worker; a server
// whose whole fleet crashed while holding leases sees no requests at
// all, so a coordinator owner should call Reap on a timer to keep the
// bounded-retry failure reachable.
func (c *Coordinator) Reap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap(c.opts.now())
}

// claimResponse is the claim endpoint's answer; exactly one branch is
// populated.
type claimResponse struct {
	Unit       string `json:"unit,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	Cell       string `json:"cell,omitempty"`
	LeaseMS    int64  `json:"lease_ms,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
	WaitMS     int64  `json:"wait_ms,omitempty"`
	Done       bool   `json:"done,omitempty"`
	Failed     string `json:"failed,omitempty"`
}

// claim grants the most expensive pending unit to worker.
func (c *Coordinator) claim(worker string) claimResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.now()
	c.reap(now)
	if c.failure != nil {
		return claimResponse{Failed: c.failure.Error()}
	}
	for _, si := range c.costOrder {
		s := c.states[si]
		if s.status != unitPending {
			continue
		}
		s.status = unitLeased
		s.worker = worker
		s.attempts++
		s.expires = now.Add(c.opts.LeaseTTL)
		s.claimedAt = now
		w := c.worker(worker)
		w.Claims++
		if s.last != "" && s.last != worker {
			c.steals++
			w.Steals++
			c.log("unit stolen",
				"unit", s.unit.ID, "worker", worker, "from", s.last, "attempt", s.attempts, "lease", c.opts.LeaseTTL)
		} else {
			c.log("unit claimed",
				"unit", s.unit.ID, "worker", worker, "attempt", s.attempts, "lease", c.opts.LeaseTTL)
		}
		mc := c.manifest.Cells[s.unit.Cells[0]]
		return claimResponse{
			Unit:       s.unit.ID,
			Experiment: mc.Experiment,
			Cell:       mc.Cell,
			LeaseMS:    c.opts.LeaseTTL.Milliseconds(),
			Attempt:    s.attempts,
		}
	}
	if c.doneCount == len(c.states) {
		return claimResponse{Done: true}
	}
	return claimResponse{WaitMS: c.opts.WaitHint.Milliseconds()}
}

type heartbeatResponse struct {
	OK     bool   `json:"ok"`
	Failed string `json:"failed,omitempty"`
}

// heartbeat extends worker's lease on unit, if it still holds one.
func (c *Coordinator) heartbeat(worker, unit string) heartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.now()
	c.reap(now)
	if c.failure != nil {
		return heartbeatResponse{Failed: c.failure.Error()}
	}
	si, ok := c.byID[unit]
	if !ok {
		return heartbeatResponse{}
	}
	s := c.states[si]
	if s.status != unitLeased || s.worker != worker {
		return heartbeatResponse{}
	}
	s.expires = now.Add(c.opts.LeaseTTL)
	return heartbeatResponse{OK: true}
}

// uploadError distinguishes stale uploads (409) from malformed ones
// (400).
type uploadError struct {
	status int
	msg    string
}

func (e *uploadError) Error() string { return e.msg }

// upload records a completed unit. First result wins — results are
// deterministic, so whichever execution finished first is the result;
// a second upload for the same unit is stale and rejected.
func (c *Coordinator) upload(worker, manifestHash string, cell shard.PartialCell) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return &uploadError{http.StatusConflict, c.failure.Error()}
	}
	if manifestHash != c.manifest.Hash {
		return &uploadError{http.StatusBadRequest, fmt.Sprintf(
			"upload for manifest %s, coordinator serves %s", manifestHash, c.manifest.Hash)}
	}
	si, ok := c.byID[cell.Unit]
	if !ok {
		return &uploadError{http.StatusBadRequest, fmt.Sprintf("unknown unit %s", cell.Unit)}
	}
	s := c.states[si]
	if s.status == unitDone {
		c.stale++
		c.log("stale upload rejected", "unit", cell.Unit, "worker", worker)
		return &uploadError{http.StatusConflict, fmt.Sprintf(
			"unit %s already completed by another worker", cell.Unit)}
	}
	s.status = unitDone
	s.worker = ""
	s.uploader = worker
	s.cell = cell
	c.doneCount++
	w := c.worker(worker)
	w.Units++
	w.Seconds += cell.Seconds
	if c.opts.Tracer != nil {
		c.opts.Tracer.Add(obs.Span{
			Experiment: cell.Experiment,
			Cell:       cell.Cell,
			Unit:       cell.Unit,
			Worker:     worker,
			StartMs:    float64(s.claimedAt.Sub(c.started)) / float64(time.Millisecond),
			DurationMs: cell.Seconds * 1e3,
		})
	}
	c.log("unit uploaded",
		"unit", cell.Unit, "worker", worker, "seconds", cell.Seconds,
		"done", c.doneCount, "total", len(c.states))
	if c.doneCount == len(c.states) {
		close(c.done)
	}
	return nil
}

// Done is closed when every unit has completed or the run has failed.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err reports the run failure, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Partial assembles the completed run as a single shard partial —
// cells in manifest unit order, so the bytes are independent of claim
// order and worker count. It errors until every unit is done.
func (c *Coordinator) Partial() (shard.Partial, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return shard.Partial{}, c.failure
	}
	if c.doneCount != len(c.states) {
		return shard.Partial{}, fmt.Errorf("dispatch: %d of %d units still outstanding", len(c.states)-c.doneCount, len(c.states))
	}
	p := shard.Partial{
		Version:        shard.PartialVersion,
		ManifestHash:   c.manifest.Hash,
		Scale:          c.manifest.Scale,
		Filter:         c.manifest.Filter,
		Shard:          0,
		Shards:         1,
		Workers:        len(c.workers),
		ElapsedSeconds: c.opts.now().Sub(c.started).Seconds(),
	}
	for _, s := range c.states {
		p.Cells = append(p.Cells, s.cell)
	}
	return p, nil
}

// Timing snapshots the schedule for timing.json's dispatch section.
// Workers are listed sorted by name.
func (c *Coordinator) Timing() experiments.DispatchTiming {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := experiments.DispatchTiming{
		LeaseSeconds: c.opts.LeaseTTL.Seconds(),
		Units:        len(c.states),
		Requeues:     c.requeues,
		Steals:       c.steals,
		StaleUploads: c.stale,
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Workers = append(t.Workers, *c.workers[name])
	}
	for _, s := range c.states {
		if s.status != unitDone {
			continue
		}
		t.UnitTimings = append(t.UnitTimings, experiments.DispatchUnit{
			Unit:       s.unit.ID,
			Experiment: s.cell.Experiment,
			Cell:       s.cell.Cell,
			Worker:     s.uploader,
			Attempts:   s.attempts,
			Seconds:    s.cell.Seconds,
		})
	}
	return t
}

// Metrics renders the coordinator's schedule state as Prometheus
// metrics for the /metrics endpoint. The values are drawn from the
// same book-keeping as Timing, so a scrape always matches
// timing.json's dispatch section.
func (c *Coordinator) Metrics() []obs.Metric {
	c.mu.Lock()
	defer c.mu.Unlock()
	pending, leased := 0, 0
	for _, s := range c.states {
		switch s.status {
		case unitPending:
			pending++
		case unitLeased:
			leased++
		}
	}
	claims := 0
	for _, w := range c.workers {
		claims += w.Claims
	}
	out := []obs.Metric{
		{Name: "perfiso_dispatch_units", Type: "gauge", Help: "Units in the manifest.", Value: float64(len(c.states))},
		{Name: "perfiso_dispatch_units_pending", Type: "gauge", Help: "Units waiting for a claim.", Value: float64(pending)},
		{Name: "perfiso_dispatch_units_leased", Type: "gauge", Help: "Units currently leased.", Value: float64(leased)},
		{Name: "perfiso_dispatch_units_done", Type: "gauge", Help: "Units completed.", Value: float64(c.doneCount)},
		{Name: "perfiso_dispatch_claims_total", Type: "counter", Help: "Leases granted.", Value: float64(claims)},
		{Name: "perfiso_dispatch_steals_total", Type: "counter", Help: "Re-claims by a different worker.", Value: float64(c.steals)},
		{Name: "perfiso_dispatch_lease_expiries_total", Type: "counter", Help: "Leases expired and requeued.", Value: float64(c.requeues)},
		{Name: "perfiso_dispatch_stale_uploads_total", Type: "counter", Help: "Uploads rejected as already completed.", Value: float64(c.stale)},
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, obs.Metric{
			Name: "perfiso_dispatch_worker_units", Type: "gauge",
			Help:   "Units completed per worker.",
			Labels: map[string]string{"worker": name},
			Value:  float64(c.workers[name].Units),
		})
	}
	return out
}

// statusResponse is the human-facing progress snapshot.
type statusResponse struct {
	ManifestHash string                     `json:"manifest_hash"`
	Scale        string                     `json:"scale"`
	Filter       string                     `json:"filter,omitempty"`
	Units        int                        `json:"units"`
	Pending      int                        `json:"pending"`
	Leased       int                        `json:"leased"`
	Done         int                        `json:"done"`
	Failed       string                     `json:"failed,omitempty"`
	Dispatch     experiments.DispatchTiming `json:"dispatch"`
}

func (c *Coordinator) status() statusResponse {
	t := c.Timing()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := statusResponse{
		ManifestHash: c.manifest.Hash,
		Scale:        c.manifest.Scale,
		Filter:       c.manifest.Filter,
		Units:        len(c.states),
		Done:         c.doneCount,
		Dispatch:     t,
	}
	for _, s := range c.states {
		switch s.status {
		case unitPending:
			out.Pending++
		case unitLeased:
			out.Leased++
		}
	}
	if c.failure != nil {
		out.Failed = c.failure.Error()
	}
	return out
}

// request bodies shared by claim, heartbeat and upload.
type claimRequest struct {
	Worker string `json:"worker"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	Unit   string `json:"unit"`
}

type uploadRequest struct {
	Worker       string            `json:"worker"`
	ManifestHash string            `json:"manifest_hash"`
	Cell         shard.PartialCell `json:"cell"`
}

type uploadResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// decodeInto reads a small JSON body, failing the request on garbage.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, uploadResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// Handler serves the package protocol (see the package docs).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/manifest", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.manifest)
	})
	mux.HandleFunc("POST /v1/claim", func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		if !decodeInto(w, r, &req) {
			return
		}
		if req.Worker == "" {
			writeJSON(w, http.StatusBadRequest, uploadResponse{Error: "claim without a worker name"})
			return
		}
		writeJSON(w, http.StatusOK, c.claim(req.Worker))
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeInto(w, r, &req) {
			return
		}
		writeJSON(w, http.StatusOK, c.heartbeat(req.Worker, req.Unit))
	})
	mux.HandleFunc("POST /v1/upload", func(w http.ResponseWriter, r *http.Request) {
		var req uploadRequest
		if !decodeInto(w, r, &req) {
			return
		}
		if err := c.upload(req.Worker, req.ManifestHash, req.Cell); err != nil {
			status := http.StatusBadRequest
			var ue *uploadError
			if errors.As(err, &ue) {
				status = ue.status
			}
			writeJSON(w, status, uploadResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, uploadResponse{OK: true})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.status())
	})
	return mux
}
