package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
	"perfiso/internal/shard"
)

// fakeManifest is a synthetic three-unit manifest for pure scheduling
// tests — nothing in it can execute.
func fakeManifest() shard.Manifest {
	return shard.Manifest{
		Version: shard.ManifestVersion,
		Scale:   "test",
		Cells: []experiments.CellRef{
			{Experiment: "e", Cell: "small", Cost: 1},
			{Experiment: "e", Cell: "big", Cost: 100},
			{Experiment: "e", Cell: "mid", Cost: 10},
		},
		Hash: "sha256:fake",
	}
}

// fakeClock is a manually advanced Options.now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestClaimOrderAndLifecycle: claims hand out expensive units first,
// idle claims wait, and completion flips to done.
func TestClaimOrderAndLifecycle(t *testing.T) {
	m := fakeManifest()
	c, err := NewCoordinator(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 3; i++ {
		r := c.claim("w")
		if r.Unit == "" {
			t.Fatalf("claim %d: %+v", i, r)
		}
		got = append(got, r.Cell)
	}
	if want := []string{"big", "mid", "small"}; !equalStrings(got, want) {
		t.Errorf("claim order %v, want %v", got, want)
	}

	// Everything leased: an extra claim waits, not done.
	if r := c.claim("w2"); r.WaitMS == 0 || r.Done {
		t.Errorf("claim with all units leased: %+v", r)
	}

	for _, cell := range []string{"small", "big", "mid"} {
		err := c.upload("w", m.Hash, shard.PartialCell{Unit: "cell:e/" + cell, Experiment: "e", Cell: cell, Result: []byte("{}")})
		if err != nil {
			t.Fatalf("upload %s: %v", cell, err)
		}
	}
	if r := c.claim("w"); !r.Done {
		t.Errorf("claim after completion: %+v", r)
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done not closed after final upload")
	}
	p, err := c.Partial()
	if err != nil {
		t.Fatal(err)
	}
	// Partial cells come back in manifest unit order, not claim order.
	if len(p.Cells) != 3 || p.Cells[0].Cell != "small" || p.Cells[1].Cell != "big" {
		t.Errorf("partial order: %+v", p.Cells)
	}
	// w2 never held a lease, so only w counts as a worker.
	if p.ManifestHash != m.Hash || p.Shards != 1 || p.Workers != 1 {
		t.Errorf("partial header: %+v", p)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLeaseExpiryRequeueAndSteal: an abandoned lease requeues after
// its TTL and a different worker's re-claim counts as a steal; the
// abandoner's late upload is accepted only if it lands first.
func TestLeaseExpiryRequeueAndSteal(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m := fakeManifest()
	c, err := NewCoordinator(m, Options{LeaseTTL: time.Second, MaxAttempts: 3, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	first := c.claim("crasher") // takes "big" and is never heard from again
	if first.Cell != "big" {
		t.Fatalf("first claim: %+v", first)
	}

	// Within the TTL the unit stays leased.
	clock.advance(500 * time.Millisecond)
	if r := c.claim("healthy"); r.Cell != "mid" {
		t.Fatalf("second claim: %+v", r)
	}

	// Heartbeats extend the healthy lease across the crasher's expiry.
	clock.advance(700 * time.Millisecond)
	if hb := c.heartbeat("healthy", "cell:e/mid"); !hb.OK {
		t.Fatalf("heartbeat lost: %+v", hb)
	}
	if hb := c.heartbeat("crasher", "cell:e/big"); hb.OK {
		t.Error("expired lease heartbeat extended")
	}

	// The crasher's unit is requeued and stolen; "small" is still
	// pending, but "big" is more expensive so it goes first.
	r := c.claim("healthy")
	if r.Cell != "big" || r.Attempt != 2 {
		t.Fatalf("steal claim: %+v", r)
	}
	timing := c.Timing()
	if timing.Requeues != 1 || timing.Steals != 1 {
		t.Errorf("timing after steal: %+v", timing)
	}
	for _, w := range timing.Workers {
		if w.Worker == "crasher" && w.Requeues != 1 {
			t.Errorf("crasher accounting: %+v", w)
		}
		if w.Worker == "healthy" && w.Steals != 1 {
			t.Errorf("healthy accounting: %+v", w)
		}
	}

	// The healthy worker completes the stolen unit; the crasher's
	// eventual upload of the same unit is stale.
	if err := c.upload("healthy", m.Hash, shard.PartialCell{Unit: "cell:e/big", Experiment: "e", Cell: "big", Result: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	err = c.upload("crasher", m.Hash, shard.PartialCell{Unit: "cell:e/big", Experiment: "e", Cell: "big", Result: []byte("{}")})
	var ue *uploadError
	if !errors.As(err, &ue) || ue.status != http.StatusConflict {
		t.Fatalf("stale upload: %v", err)
	}
	if got := c.Timing().StaleUploads; got != 1 {
		t.Errorf("stale uploads %d, want 1", got)
	}

	// A hash from another manifest is malformed, not stale.
	err = c.upload("healthy", "sha256:other", shard.PartialCell{Unit: "cell:e/small", Experiment: "e", Cell: "small", Result: []byte("{}")})
	if !errors.As(err, &ue) || ue.status != http.StatusBadRequest {
		t.Fatalf("foreign-manifest upload: %v", err)
	}
}

// TestPoisonedUnitFailsRun: a unit that exhausts MaxAttempts fails the
// run, naming the unit, and subsequent claims and worker loops see the
// failure.
func TestPoisonedUnitFailsRun(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m := fakeManifest()
	c, err := NewCoordinator(m, Options{LeaseTTL: time.Second, MaxAttempts: 2, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r := c.claim("bad"); r.Cell != "big" {
			t.Fatalf("attempt %d claim: %+v", i+1, r)
		}
		clock.advance(2 * time.Second) // let the lease rot
	}
	r := c.claim("bad")
	if r.Failed == "" || !strings.Contains(r.Failed, "cell:e/big") {
		t.Fatalf("claim after poisoning: %+v", r)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "exhausted 2 attempts") {
		t.Fatalf("Err: %v", err)
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done not closed on failure")
	}
	if _, err := c.Partial(); err == nil {
		t.Error("Partial succeeded on a failed run")
	}
	// Other units are irrelevant once the run is failed; uploads are
	// refused too.
	if err := c.upload("bad", m.Hash, shard.PartialCell{Unit: "cell:e/mid", Experiment: "e", Cell: "mid", Result: []byte("{}")}); err == nil {
		t.Error("upload accepted on a failed run")
	}
}

// TestReapWithoutTraffic: a fleet that dies wholesale sends no claims
// or heartbeats, so only an owner-driven Reap can requeue its leases —
// and poisoning (hence run failure) must still be reachable that way.
func TestReapWithoutTraffic(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	m := fakeManifest()
	c, err := NewCoordinator(m, Options{LeaseTTL: time.Second, MaxAttempts: 1, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	if r := c.claim("doomed"); r.Cell != "big" {
		t.Fatalf("claim: %+v", r)
	}
	clock.advance(2 * time.Second)
	c.Reap() // no claim/heartbeat will ever arrive again
	if got := c.Timing().Requeues; got != 1 {
		t.Errorf("requeues after Reap: %d, want 1", got)
	}
	// MaxAttempts=1, so that single expiry poisons the unit and fails
	// the run without any further worker traffic.
	select {
	case <-c.Done():
	default:
		t.Error("Done not closed by owner-driven Reap")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "cell:e/big") {
		t.Errorf("Err after Reap: %v", err)
	}
}

// TestHTTPProtocol drives the coordinator through its real handler:
// manifest fetch, claim, heartbeat, upload (including the 409), and
// status.
func TestHTTPProtocol(t *testing.T) {
	m := fakeManifest()
	c, err := NewCoordinator(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx := context.Background()

	got, err := FetchManifest(ctx, srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != m.Hash || len(got.Cells) != len(m.Cells) {
		t.Fatalf("fetched manifest: %+v", got)
	}

	w := &Worker{Coordinator: srv.URL, Name: "httpw", Client: srv.Client()}
	var claim claimResponse
	if err := w.postJSON(ctx, "/v1/claim", claimRequest{Worker: "httpw"}, &claim); err != nil {
		t.Fatal(err)
	}
	if claim.Unit != "cell:e/big" || claim.LeaseMS <= 0 {
		t.Fatalf("claim over HTTP: %+v", claim)
	}
	var hb heartbeatResponse
	if err := w.postJSON(ctx, "/v1/heartbeat", heartbeatRequest{Worker: "httpw", Unit: claim.Unit}, &hb); err != nil || !hb.OK {
		t.Fatalf("heartbeat over HTTP: %+v, %v", hb, err)
	}
	if err := w.postJSON(ctx, "/v1/upload", uploadRequest{Worker: "httpw", ManifestHash: m.Hash,
		Cell: shard.PartialCell{Unit: claim.Unit, Experiment: "e", Cell: "big", Result: []byte("{}")}}, nil); err != nil {
		t.Fatal(err)
	}
	err = w.postJSON(ctx, "/v1/upload", uploadRequest{Worker: "late", ManifestHash: m.Hash,
		Cell: shard.PartialCell{Unit: claim.Unit, Experiment: "e", Cell: "big", Result: []byte("{}")}}, nil)
	var he *httpError
	if !errors.As(err, &he) || he.Status != http.StatusConflict {
		t.Fatalf("stale upload over HTTP: %v", err)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status statusResponse
	if err := decodeResponse(resp, &status); err != nil {
		t.Fatal(err)
	}
	if status.Units != 3 || status.Done != 1 || status.Dispatch.StaleUploads != 1 {
		t.Errorf("status: %+v", status)
	}
}

// dispatchFilter keeps the real-execution tests fast while crossing
// the interesting boundaries: headline and fig5 share a standalone
// baseline by key, fig10 brings a second result type.
const dispatchFilter = "^(fig10|headline)$"

// artifactBytes renders a run's deterministic outputs.
func artifactBytes(t *testing.T, res experiments.RunResult) (summary, csv, md []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := experiments.WriteArtifacts(dir, res); err != nil {
		t.Fatal(err)
	}
	summary, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	csv, err = os.ReadFile(filepath.Join(dir, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return summary, csv, []byte(experiments.RenderMarkdown(res))
}

// singleRun is the single-process reference the dispatched runs must
// match byte-for-byte.
func singleRun(t *testing.T, reg *experiments.Registry, spec experiments.ScaleSpec) experiments.RunResult {
	t.Helper()
	m, err := shard.Build(reg, spec, dispatchFilter)
	if err != nil {
		t.Fatal(err)
	}
	single, err := reg.Run(experiments.RunOptions{Spec: spec, Workers: 2, Filter: regexp.MustCompile(dispatchFilter)})
	if err != nil {
		t.Fatal(err)
	}
	single.ManifestHash = m.Hash
	return single
}

// TestDispatchByteIdentical is the subsystem's acceptance property: a
// dispatched run at any worker count merges to artifacts
// byte-identical to a single-process run.
func TestDispatchByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	spec := experiments.TestSpec()
	reg := experiments.DefaultRegistry()
	wantSummary, wantCSV, wantMD := artifactBytes(t, singleRun(t, reg, spec))

	for _, workers := range []int{1, 3} {
		rec := obs.NewRecording()
		p, timing, err := RunLocal(reg, spec, dispatchFilter, workers, Options{}, rec, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if timing.Units != len(p.Cells) || timing.Units == 0 {
			t.Errorf("workers=%d: timing units %d, partial cells %d", workers, timing.Units, len(p.Cells))
		}
		var completed int
		for _, w := range timing.Workers {
			completed += w.Units
		}
		if completed != timing.Units {
			t.Errorf("workers=%d: per-worker completions %d != units %d", workers, completed, timing.Units)
		}
		// Every accepted upload is counted, the one that completed the
		// run included.
		if got := rec.Snapshot().DispatchUploads; got != uint64(timing.Units) {
			t.Errorf("workers=%d: recording counted %d uploads, coordinator accepted %d units", workers, got, timing.Units)
		}
		merged, mt, err := shard.Merge(reg, spec, dispatchFilter, []shard.Partial{p})
		if err != nil {
			t.Fatalf("workers=%d: merge: %v", workers, err)
		}
		if len(mt.Shards) != 1 {
			t.Errorf("workers=%d: merge timing: %+v", workers, mt)
		}
		gotSummary, gotCSV, gotMD := artifactBytes(t, merged)
		if !bytes.Equal(gotSummary, wantSummary) || !bytes.Equal(gotCSV, wantCSV) || !bytes.Equal(gotMD, wantMD) {
			t.Errorf("workers=%d: dispatched artifacts differ from single-process run", workers)
		}
	}
}

// TestDispatchWorkerCrashByteIdentical injects a worker failure: one
// worker claims a unit and dies without heartbeating; the lease
// expires, the unit requeues, surviving workers finish, and the merged
// artifacts are still byte-identical to the single-process run.
func TestDispatchWorkerCrashByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	spec := experiments.TestSpec()
	reg := experiments.DefaultRegistry()
	wantSummary, wantCSV, wantMD := artifactBytes(t, singleRun(t, reg, spec))

	runner, err := shard.NewUnitRunner(reg, spec, dispatchFilter)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(runner.Manifest, Options{
		LeaseTTL: 300 * time.Millisecond,
		WaitHint: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The "crashed" worker: claims the most expensive unit over the
	// real protocol and is never heard from again.
	victim := &Worker{Coordinator: srv.URL, Name: "victim", Client: srv.Client()}
	var doomed claimResponse
	if err := victim.postJSON(context.Background(), "/v1/claim", claimRequest{Worker: "victim"}, &doomed); err != nil {
		t.Fatal(err)
	}
	if doomed.Unit == "" {
		t.Fatalf("victim claim: %+v", doomed)
	}

	// Two survivors drain the queue, stealing the victim's unit once
	// its lease expires.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &Worker{Coordinator: srv.URL, Name: fmt.Sprintf("survivor-%d", i), Runner: runner, Client: srv.Client()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(context.Background()); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}()
	}
	wg.Wait()
	select {
	case <-c.Done():
	default:
		t.Fatal("survivors exited with the run incomplete")
	}

	timing := c.Timing()
	if timing.Requeues < 1 || timing.Steals < 1 {
		t.Errorf("expected the victim's unit to requeue and be stolen: %+v", timing)
	}
	p, err := c.Partial()
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := shard.Merge(reg, spec, dispatchFilter, []shard.Partial{p})
	if err != nil {
		t.Fatal(err)
	}
	gotSummary, gotCSV, gotMD := artifactBytes(t, merged)
	if !bytes.Equal(gotSummary, wantSummary) || !bytes.Equal(gotCSV, wantCSV) || !bytes.Equal(gotMD, wantMD) {
		t.Error("artifacts differ after an injected worker crash")
	}
}

// TestTimingWorkersSortedByName: Timing() must list workers in sorted
// name order regardless of registration (map) order — the perfiso-lint
// maporder cleanup replaced an append-then-sort over the workers map
// with sorted-key iteration, and timing.json's dispatch section must
// stay deterministic for a given schedule.
func TestTimingWorkersSortedByName(t *testing.T) {
	c, err := NewCoordinator(fakeManifest(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zed", "alpha", "mike"} {
		c.claim(name)
	}
	workers := c.Timing().Workers
	if len(workers) != 3 {
		t.Fatalf("got %d workers, want 3", len(workers))
	}
	for i := 1; i < len(workers); i++ {
		if workers[i-1].Worker >= workers[i].Worker {
			t.Fatalf("workers not sorted by name: %q before %q", workers[i-1].Worker, workers[i].Worker)
		}
	}
}
