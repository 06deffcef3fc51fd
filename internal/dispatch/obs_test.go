package dispatch

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
	"perfiso/internal/shard"
)

// metricValue resolves a rendered metric by name (and optional worker
// label) from a Metrics() snapshot.
func metricValue(t *testing.T, ms []obs.Metric, name, worker string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.Name != name {
			continue
		}
		if worker != "" && m.Labels["worker"] != worker {
			continue
		}
		return m.Value
	}
	t.Fatalf("metric %s{worker=%q} not rendered", name, worker)
	return 0
}

// TestDispatchObservability is the observability acceptance property:
// a dispatched multi-worker run produces a trace covering every
// executed unit exactly once, and the /metrics values match the run's
// timing.json dispatch section because both read the same books.
func TestDispatchObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	spec := experiments.TestSpec()
	reg := experiments.DefaultRegistry()
	plan, m, err := shard.BuildPlan(reg, spec, dispatchFilter)
	if err != nil {
		t.Fatal(err)
	}
	runner := shard.NewUnitRunner(plan, m)
	rec := obs.NewRecording()
	tracer := obs.NewTraceBuffer()
	c, err := NewCoordinator(runner.Manifest, plan.CheckResult, Options{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &Worker{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("w-%d", i),
			Runner:      runner,
			Client:      srv.Client(),
			Tracker:     rec,
		}
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
		t.Fatal("workers exited with the run incomplete")
	}

	units := runner.Units()
	dt := c.Timing()

	// Every executed unit appears in the trace exactly once, fully
	// labeled.
	spans := tracer.Spans()
	if len(spans) != len(units) {
		t.Fatalf("trace has %d spans, manifest has %d units", len(spans), len(units))
	}
	seen := map[string]bool{}
	for _, s := range spans {
		if _, ok := runner.Unit(s.Unit); !ok {
			t.Errorf("span names unknown unit %q", s.Unit)
		}
		if seen[s.Unit] {
			t.Errorf("unit %s traced twice", s.Unit)
		}
		seen[s.Unit] = true
		if s.Worker == "" || s.Experiment == "" || s.Cell == "" {
			t.Errorf("span missing labels: %+v", s)
		}
		if s.DurationMs < 0 {
			t.Errorf("span duration negative: %+v", s)
		}
	}

	// The per-unit timing breakdown also covers everything.
	if len(dt.UnitTimings) != len(units) {
		t.Fatalf("timing has %d unit rows, want %d", len(dt.UnitTimings), len(units))
	}
	for _, u := range dt.UnitTimings {
		if u.Worker == "" || u.Attempts < 1 {
			t.Errorf("unit timing missing attribution: %+v", u)
		}
	}

	// /metrics and timing.json are views of the same book-keeping.
	ms := c.Metrics()
	claims := 0
	for _, w := range dt.Workers {
		claims += w.Claims
	}
	for _, want := range []struct {
		name  string
		value float64
	}{
		{"perfiso_dispatch_units", float64(dt.Units)},
		{"perfiso_dispatch_units_done", float64(dt.Units)},
		{"perfiso_dispatch_units_pending", 0},
		{"perfiso_dispatch_units_leased", 0},
		{"perfiso_dispatch_claims_total", float64(claims)},
		{"perfiso_dispatch_steals_total", float64(dt.Steals)},
		{"perfiso_dispatch_lease_expiries_total", float64(dt.Requeues)},
		{"perfiso_dispatch_stale_uploads_total", float64(dt.StaleUploads)},
	} {
		if got := metricValue(t, ms, want.name, ""); got != want.value {
			t.Errorf("%s = %v, timing says %v", want.name, got, want.value)
		}
	}
	for _, w := range dt.Workers {
		if got := metricValue(t, ms, "perfiso_dispatch_worker_units", w.Worker); got != float64(w.Units) {
			t.Errorf("worker_units{%s} = %v, timing says %d", w.Worker, got, w.Units)
		}
	}

	// The workers' shared recording counts one accepted upload (and so
	// one latency sample) per unit.
	s := rec.Snapshot()
	if s.DispatchUploads != uint64(len(units)) {
		t.Errorf("recording counted %d uploads, want %d", s.DispatchUploads, len(units))
	}
	if s.DispatchUploadMaxSeconds < s.DispatchUploadMeanSeconds {
		t.Errorf("upload max %v < mean %v", s.DispatchUploadMaxSeconds, s.DispatchUploadMeanSeconds)
	}
}
