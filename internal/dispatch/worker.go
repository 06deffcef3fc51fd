package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"perfiso/internal/obs"
	"perfiso/internal/shard"
)

// Worker pulls units from a coordinator and executes them through a
// shard.UnitRunner: claim, heartbeat while running, upload, repeat,
// until the coordinator reports the run done or failed.
type Worker struct {
	// Coordinator is the base URL ("http://host:port").
	Coordinator string
	// Name identifies the worker in leases and timing.
	Name string
	// Runner executes claimed units; its manifest hash must match the
	// coordinator's (Run verifies).
	Runner *shard.UnitRunner
	// Client is the HTTP client; nil uses a default with sane
	// timeouts.
	Client *http.Client
	// OnUnit, when set, is called after each completed unit, from this
	// worker's goroutine — a callback shared across workers must
	// synchronize internally.
	OnUnit func(experiment, cell string, elapsed time.Duration)
	// Tracker, when set, counts accepted uploads and their latencies.
	Tracker *obs.Recording

	// Units counts accepted uploads; Stale counts rejected ones.
	Units, Stale int
}

// transientRetries is how often a worker retries a request that failed
// at the transport layer (coordinator restarting, network blip) before
// giving up. Retries back off linearly up to transientBackoffCap.
const (
	transientRetries    = 20
	transientBackoffCap = 2 * time.Second
)

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// postJSON posts body and decodes the response into out, retrying
// transport errors. Non-2xx statuses are returned as *httpError with
// the decoded error message, not retried.
func (w *Worker) postJSON(ctx context.Context, path string, body, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	var last error
	for attempt := 0; attempt < transientRetries; attempt++ {
		if attempt > 0 {
			backoff := time.Duration(attempt) * 100 * time.Millisecond
			if backoff > transientBackoffCap {
				backoff = transientBackoffCap
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff): //perfiso:allow walltime retry backoff between real HTTP attempts
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(blob))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.client().Do(req)
		if err != nil {
			last = err
			continue
		}
		err = decodeResponse(resp, out)
		var he *httpError
		if errors.As(err, &he) && he.Status >= 500 {
			last = err
			continue
		}
		return err
	}
	return fmt.Errorf("dispatch: %s unreachable after %d attempts: %w", w.Coordinator+path, transientRetries, last)
}

// httpError is a non-2xx protocol answer.
type httpError struct {
	Status int
	Msg    string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("dispatch: coordinator answered %d: %s", e.Status, e.Msg)
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var fail uploadResponse
		msg := strings.TrimSpace(string(blob))
		if json.Unmarshal(blob, &fail) == nil && fail.Error != "" {
			msg = fail.Error
		}
		return &httpError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

// FetchManifest downloads the manifest a coordinator is serving,
// retrying briefly so workers may start before the coordinator binds.
func FetchManifest(ctx context.Context, client *http.Client, base string) (shard.Manifest, error) {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	var last error
	for attempt := 0; attempt < transientRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return shard.Manifest{}, ctx.Err()
			case <-time.After(500 * time.Millisecond): //perfiso:allow walltime retry backoff between real HTTP attempts
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/manifest", nil)
		if err != nil {
			return shard.Manifest{}, err
		}
		resp, err := client.Do(req)
		if err != nil {
			last = err
			continue
		}
		var m shard.Manifest
		if err := decodeResponse(resp, &m); err != nil {
			last = err
			continue
		}
		return m, nil
	}
	return shard.Manifest{}, fmt.Errorf("dispatch: fetching manifest from %s: %w", base, last)
}

// Run executes the claim loop until the run completes ("done"), the
// coordinator reports failure, or ctx is cancelled. A completed run
// returns nil even if some of this worker's uploads were stale.
func (w *Worker) Run(ctx context.Context) error {
	if w.Runner == nil {
		return fmt.Errorf("dispatch: worker %s has no runner", w.Name)
	}
	if w.Runner.Manifest.Hash == "" {
		return fmt.Errorf("dispatch: worker %s runner has no manifest hash", w.Name)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var claim claimResponse
		if err := w.postJSON(ctx, "/v1/claim", claimRequest{Worker: w.Name}, &claim); err != nil {
			return err
		}
		switch {
		case claim.Failed != "":
			return fmt.Errorf("dispatch: run failed: %s", claim.Failed)
		case claim.Done:
			return nil
		case claim.Unit != "":
			if err := w.execute(ctx, claim); err != nil {
				return err
			}
		default:
			wait := time.Duration(claim.WaitMS) * time.Millisecond
			if wait <= 0 {
				wait = DefaultWaitHint
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait): //perfiso:allow walltime coordinator-directed claim poll wait
			}
		}
	}
}

// execute runs one claimed unit with a heartbeat goroutine alive for
// the duration, then uploads the result. A 409 (another worker beat us
// to the unit) is recorded and swallowed — the claim loop continues.
func (w *Worker) execute(ctx context.Context, claim claimResponse) error {
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := time.Duration(claim.LeaseMS) * time.Millisecond / 3
		if interval <= 0 {
			interval = DefaultLeaseTTL / 3
		}
		ticker := time.NewTicker(interval) //perfiso:allow walltime lease heartbeats pace real time
		defer ticker.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-ticker.C:
				// A lost lease (ok=false) is informational: the result
				// is deterministic, so we finish and upload anyway;
				// the coordinator keeps the first result to land.
				var hb heartbeatResponse
				_ = w.postJSON(hbCtx, "/v1/heartbeat", heartbeatRequest{Worker: w.Name, Unit: claim.Unit}, &hb)
			}
		}
	}()

	start := time.Now() //perfiso:allow walltime unit wall cost feeds timing.json only
	cell, runErr := w.Runner.RunUnit(claim.Unit)
	stopHB()
	<-hbDone
	if runErr != nil {
		return runErr
	}

	upStart := time.Now() //perfiso:allow walltime upload latency feeds the obs recording only
	err := w.postJSON(ctx, "/v1/upload", uploadRequest{
		Worker:       w.Name,
		ManifestHash: w.Runner.Manifest.Hash,
		Cell:         cell,
	}, nil)
	var he *httpError
	if errors.As(err, &he) && he.Status == http.StatusConflict {
		w.Stale++
		return nil
	}
	if err != nil {
		return err
	}
	w.Tracker.Upload(time.Since(upStart).Seconds()) //perfiso:allow walltime upload latency feeds the obs recording only
	w.Units++
	if w.OnUnit != nil {
		w.OnUnit(cell.Experiment, cell.Cell, time.Since(start)) //perfiso:allow walltime unit wall cost feeds timing.json only
	}
	return nil
}
