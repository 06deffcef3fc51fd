package experiments

import (
	"math"
	"strings"
	"testing"

	"perfiso/internal/cluster"
	"perfiso/internal/sim"
)

func TestTimelineTracksCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := DefaultTimelineConfig()
	cfg.Duration = 20 * sim.Second
	r := RunTimeline(cfg)
	if len(r.Samples) != 20 {
		t.Fatalf("windows = %d, want 20", len(r.Samples))
	}
	// The arrival series must follow the diurnal curve: compare each
	// window's observed QPS against the curve value at its midpoint.
	for _, s := range r.Samples {
		x := (s.At.Seconds() + 0.5) / cfg.Duration.Seconds()
		want := cfg.PeakQPS * Diurnal(x)
		if math.Abs(s.QPS-want) > 0.35*want {
			t.Errorf("t=%v: qps %.0f, curve %.0f", s.At, s.QPS, want)
		}
	}
	// Tail stays near standalone throughout (the controller absorbs
	// the swing), and the machine is busy.
	if r.MaxP99ms > 16 {
		t.Errorf("max windowed P99 = %.1f ms, want near standalone 12", r.MaxP99ms)
	}
	if r.AvgCPUUsedPct < 55 {
		t.Errorf("avg CPU = %.1f%%, want heavy harvest", r.AvgCPUUsedPct)
	}
	if !strings.Contains(r.Table(), "p99ms") {
		t.Error("table malformed")
	}
}

func TestTimelineCrossValidatesFluidModel(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// Same curve, same buffer, same machine shape: the DES timeline and
	// the fluid model must agree on average utilization within a few
	// points. This is the calibration bridge that justifies using the
	// fluid model for Fig. 10's 650×3600 scale.
	tl := DefaultTimelineConfig()
	tl.Duration = 30 * sim.Second
	des := RunTimeline(tl)

	fl := cluster.DefaultProductionConfig()
	fl.Machines = 1
	fl.Duration = 30 * sim.Second
	fl.PeakQPS = tl.PeakQPS
	fl.SecondaryDemandCores = 0 // DES bully is unbounded
	fl.LoadJitter = 0
	fluid := cluster.RunProduction(fl)

	if diff := math.Abs(des.AvgCPUUsedPct - fluid.AvgCPUUsedPct); diff > 8 {
		t.Fatalf("DES avg CPU %.1f%% vs fluid %.1f%% — diverges by %.1f points",
			des.AvgCPUUsedPct, fluid.AvgCPUUsedPct, diff)
	}
	if des.MaxP99ms > fluid.MaxP99ms+6 {
		t.Fatalf("DES max P99 %.1f ms far above fluid %.1f ms", des.MaxP99ms, fluid.MaxP99ms)
	}
}

func TestTimelineStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := DefaultTimelineConfig()
	cfg.Duration = 10 * sim.Second
	cfg.BufferCores = 0 // no colocation
	r := RunTimeline(cfg)
	for _, s := range r.Samples {
		if s.SecPct != 0 {
			t.Fatalf("standalone timeline has secondary CPU: %+v", s)
		}
	}
	if r.AvgCPUUsedPct > 45 {
		t.Fatalf("standalone avg CPU = %.1f%%, want light", r.AvgCPUUsedPct)
	}
}

func TestTimelineInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RunTimeline(TimelineConfig{})
}
