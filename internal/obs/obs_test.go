package obs

import (
	"bytes"
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNilRecordingCountsNothing(t *testing.T) {
	// Every method must be callable on a nil recording.
	var rec *Recording
	rec.AddCell(CellCounts{EventsPushed: 1, MaxHeapDepth: 3})
	if s := rec.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil recording snapshot = %+v, want zero", s)
	}
}

func TestDefaultRecording(t *testing.T) {
	if Default() != nil {
		t.Fatal("no recording should be installed by default")
	}
	rec := NewRecording()
	SetDefault(rec)
	defer SetDefault(nil)
	if Default() != rec {
		t.Fatal("recording not installed")
	}
	Default().AddCell(CellCounts{EventsPushed: 1})
	if got := rec.Snapshot().SimEventsPushed; got != 1 {
		t.Fatalf("events pushed = %d, want 1", got)
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) should remove the recording")
	}
}

func TestRecordingCounters(t *testing.T) {
	rec := NewRecording()
	rec.AddCell(CellCounts{
		EventsPushed: 2, EventsPopped: 1, MaxHeapDepth: 7, SimNs: 1_000_000_000,
		BufferGrows: 1, BufferShrinks: 2, HoldoffDeferrals: 1, Evictions: 1,
		Placements: 1, Preemptions: 1, Requeues: 1,
	})
	rec.AddCell(CellCounts{EventsPushed: 1, MaxHeapDepth: 4, SimNs: 500_000_000})

	s := rec.Snapshot()
	if s.SimEventsPushed != 3 || s.SimEventsPopped != 1 {
		t.Fatalf("events pushed/popped = %d/%d", s.SimEventsPushed, s.SimEventsPopped)
	}
	if s.SimMaxHeapDepth != 7 {
		t.Fatalf("max heap depth = %d, want 7", s.SimMaxHeapDepth)
	}
	if s.SimSeconds != 1.5 {
		t.Fatalf("sim seconds = %v, want 1.5", s.SimSeconds)
	}
	if s.CoreBufferGrows != 1 || s.CoreBufferShrinks != 2 {
		t.Fatalf("grows/shrinks = %d/%d", s.CoreBufferGrows, s.CoreBufferShrinks)
	}
	if s.CoreHoldoffDeferrals != 1 || s.CoreEvictions != 1 {
		t.Fatalf("holdoff/evictions = %d/%d", s.CoreHoldoffDeferrals, s.CoreEvictions)
	}
	if s.HarvestPlacements != 1 || s.HarvestPreemptions != 1 || s.HarvestRequeues != 1 {
		t.Fatalf("harvest counters = %d/%d/%d", s.HarvestPlacements, s.HarvestPreemptions, s.HarvestRequeues)
	}
}

func TestRecordingConcurrent(t *testing.T) {
	rec := NewRecording()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rec.AddCell(CellCounts{EventsPushed: 1, EventsPopped: 1, MaxHeapDepth: g*1000 + i})
			}
		}(g)
	}
	wg.Wait()
	s := rec.Snapshot()
	if s.SimEventsPushed != 8000 || s.SimEventsPopped != 8000 {
		t.Fatalf("concurrent counts = %d/%d, want 8000 each", s.SimEventsPushed, s.SimEventsPopped)
	}
	if s.SimMaxHeapDepth != 7999 {
		t.Fatalf("max heap depth = %d, want 7999", s.SimMaxHeapDepth)
	}
}

// TestSimDomainDoesNotImportObs pins the split the package docs
// describe: the simulated system keeps plain counters of its own, and
// only the harness (internal/experiments, shard, the CLI) imports
// obs.
func TestSimDomainDoesNotImportObs(t *testing.T) {
	for _, pkg := range []string{
		"sim", "cpumodel", "diskmodel", "memmodel", "netmodel", "osmodel",
		"node", "indexserve", "cluster", "core", "isolation", "harvest",
		"autopilot", "workload", "stats", "simtrace",
	} {
		p, err := build.ImportDir(filepath.Join("..", pkg), 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		if slices.Contains(p.Imports, "perfiso/internal/obs") {
			t.Errorf("perfiso/internal/%s imports perfiso/internal/obs", pkg)
		}
	}
}

func TestTraceBufferRoundTrip(t *testing.T) {
	buf := NewTraceBuffer()
	buf.Add(Span{Experiment: "fig10", Cell: "b", StartMs: 5, DurationMs: 2})
	buf.Add(Span{Experiment: "fig10", Cell: "a", StartMs: 5, DurationMs: 1})
	buf.Add(Span{Experiment: "headline", Cell: "x", Unit: "u3", Worker: "w1", StartMs: 1, DurationMs: 4})
	if buf.Len() != 3 {
		t.Fatalf("len = %d, want 3", buf.Len())
	}

	spans := buf.Spans()
	if spans[0].Cell != "x" || spans[1].Cell != "a" || spans[2].Cell != "b" {
		t.Fatalf("spans not in deterministic order: %+v", spans)
	}

	var out bytes.Buffer
	if err := WriteJSONL(&out, spans); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != 3 {
		t.Fatalf("jsonl lines = %d, want 3", got)
	}
	back, err := ReadTrace(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0] != spans[0] || back[2] != spans[2] {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestReadTraceBadLine(t *testing.T) {
	_, err := ReadTrace(strings.NewReader("{\"experiment\":\"a\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}
}

func TestWriteProm(t *testing.T) {
	var out bytes.Buffer
	err := WriteProm(&out, []Metric{
		{Name: "perfiso_claims_total", Type: "counter", Help: "Claims.", Value: 3},
		{Name: "perfiso_worker_units", Type: "gauge", Help: "Units per worker.",
			Labels: map[string]string{"worker": "w1"}, Value: 2},
		{Name: "perfiso_worker_units", Type: "gauge", Help: "Units per worker.",
			Labels: map[string]string{"worker": "w2"}, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# HELP perfiso_claims_total Claims.",
		"# TYPE perfiso_claims_total counter",
		"perfiso_claims_total 3",
		"perfiso_worker_units{worker=\"w1\"} 2",
		"perfiso_worker_units{worker=\"w2\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	// One shared header for the two labeled series.
	if got := strings.Count(text, "# TYPE perfiso_worker_units"); got != 1 {
		t.Fatalf("duplicate TYPE headers: %d", got)
	}
}

func TestSnapshotMetricsMatch(t *testing.T) {
	rec := NewRecording()
	rec.AddCell(CellCounts{Placements: 3})
	s := rec.Snapshot()
	s.RNGDraws = 42
	found := map[string]float64{}
	for _, m := range s.Metrics() {
		found[m.Name] = m.Value
	}
	if found["perfiso_rng_draws_total"] != 42 {
		t.Fatalf("rng draws metric = %v", found["perfiso_rng_draws_total"])
	}
	if found["perfiso_sim_events_pushed_total"] != 0 {
		t.Fatalf("events pushed metric = %v", found["perfiso_sim_events_pushed_total"])
	}
	if found["perfiso_harvest_placements_total"] != 3 {
		t.Fatalf("placements metric = %v", found["perfiso_harvest_placements_total"])
	}
}
