package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
	"perfiso/internal/shard"
)

// RunLocal dispatches a planned run (the plan and manifest
// shard.BuildPlan returned) to n in-process workers through a
// loopback coordinator — the laptop and test mode of the subsystem.
// The workers speak the real HTTP protocol, so claim racing, leases
// and uploads are all exercised; only the network is local. n <= 0
// sizes the fleet like the cell pool (GOMAXPROCS, capped at the unit
// count). rec, when set, counts the workers' accepted uploads. The
// returned partial merges like any other.
func RunLocal(plan *experiments.Plan, m shard.Manifest, n int,
	opts Options, rec *obs.Recording, onUnit func(experiment, cell string, elapsed time.Duration)) (shard.Partial, experiments.DispatchTiming, error) {
	var zt experiments.DispatchTiming
	runner := shard.NewUnitRunner(plan, m)
	c, err := NewCoordinator(m, plan.CheckResult, opts)
	if err != nil {
		return shard.Partial{}, zt, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return shard.Partial{}, zt, err
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	n = experiments.PoolSize(n, len(runner.Units()))
	base := "http://" + ln.Addr().String()
	// OnUnit fires from each worker's goroutine; the shared callback
	// gets one lock so callers see serialized calls, like the pool's
	// OnCell.
	if onUnit != nil {
		inner := onUnit
		var cbMu sync.Mutex
		onUnit = func(experiment, cell string, elapsed time.Duration) {
			cbMu.Lock()
			defer cbMu.Unlock()
			inner(experiment, cell, elapsed)
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		w := &Worker{
			Coordinator: base,
			Name:        fmt.Sprintf("local-%d", i),
			Runner:      runner,
			OnUnit:      onUnit,
			Tracker:     rec,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(context.Background())
		}()
	}
	// Every worker leaves through its own claim loop: a done or failed
	// answer once the coordinator finishes, or an error when it cannot
	// reach it. None is cancelled, so the worker whose upload completed
	// the run still reads the answer and counts that upload.
	wg.Wait()
	if err := c.Err(); err != nil {
		return shard.Partial{}, c.Timing(), err
	}
	p, err := c.Partial()
	if err != nil {
		return shard.Partial{}, c.Timing(), errors.Join(append([]error{err}, errs...)...)
	}
	if opts.Tracer != nil {
		p.Spans = opts.Tracer.Spans()
	}
	return p, c.Timing(), nil
}
