package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"perfiso/internal/obs"
)

// spanLog records one obs.Span per call the benchmark makes into the
// program: Experiment names the called function, Cell the cell. A nil
// spanLog records nothing; span still times the call.
type spanLog struct {
	start time.Time
	buf   *obs.TraceBuffer
}

func newSpanLog() *spanLog {
	return &spanLog{start: time.Now(), buf: obs.NewTraceBuffer()} //perfiso:allow walltime benchmark host timing
}

// span runs fn and returns its host seconds. worker < 0 marks a call
// made outside the cell pool.
func (s *spanLog) span(call, cell string, worker int, fn func()) float64 {
	t0 := time.Now() //perfiso:allow walltime benchmark host timing
	fn()
	d := time.Since(t0) //perfiso:allow walltime benchmark host timing
	if s != nil {
		w := ""
		if worker >= 0 {
			w = fmt.Sprintf("pool/%d", worker)
		}
		s.buf.Add(obs.Span{
			Experiment: call,
			Cell:       cell,
			Worker:     w,
			StartMs:    float64(t0.Sub(s.start)) / 1e6,
			DurationMs: float64(d) / 1e6,
		})
	}
	return d.Seconds()
}

// layers are the packages under perfiso/internal whose self time the
// traced run reports, plus "bench" for the benchmark's own code.
var layers = []string{
	"sim", "cpumodel", "indexserve", "diskmodel", "stats", "workload",
	"core", "isolation", "osmodel", "node", "memmodel", "netmodel",
	"cluster", "harvest", "autopilot", "simtrace",
	"experiments", "shard", "report", "obs", "bench",
}

// traced repeats the workload with every observer on: the obs
// recording tracker, a CPU profile, runtime/metrics and call spans.
// It returns the pass and the layer quantities those observers give.
func traced(cfg config, log io.Writer) (pass, map[string]float64, error) {
	name := fmt.Sprintf("%s-%d", cfg.workload.name, cfg.seed)
	profPath := filepath.Join(cfg.work, "profiles", name+".pprof")
	if err := os.MkdirAll(filepath.Dir(profPath), 0o755); err != nil {
		return pass{}, nil, err
	}
	f, err := os.Create(profPath)
	if err != nil {
		return pass{}, nil, err
	}
	defer f.Close()

	rec := obs.NewRecording()
	obs.SetDefault(rec)
	defer obs.SetDefault(nil)
	sp := newSpanLog()
	runtime.GC()
	before := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		return pass{}, nil, err
	}
	j, err := cfg.workload.setup(cfg, sp)
	var p pass
	if err == nil {
		p = j(sp)
	}
	pprof.StopCPUProfile()
	after := readRuntime()
	if err != nil {
		return pass{}, nil, err
	}
	if err := f.Close(); err != nil {
		return pass{}, nil, err
	}
	fmt.Fprintf(log, "bench: traced pass %.2fs, profile %s\n", p.wall, profPath)

	out, err := exec.Command("go", "tool", "pprof", "-traces", profPath).Output()
	if err != nil {
		return pass{}, nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	self, err := selfTimes(bytes.NewReader(out))
	if err != nil {
		return pass{}, nil, err
	}

	spanPath := filepath.Join(cfg.work, "spans", name+".jsonl")
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return pass{}, nil, err
	}
	sf, err := os.Create(spanPath)
	if err != nil {
		return pass{}, nil, err
	}
	if err := obs.WriteJSONL(sf, sp.buf.Spans()); err != nil {
		sf.Close()
		return pass{}, nil, err
	}
	if err := sf.Close(); err != nil {
		return pass{}, nil, err
	}

	s := rec.Snapshot()
	q := map[string]float64{
		"sim.events":             float64(s.SimEventsPopped),
		"sim.max_heap_depth":     float64(s.SimMaxHeapDepth),
		"core.buffer_grows":      float64(s.CoreBufferGrows),
		"core.buffer_shrinks":    float64(s.CoreBufferShrinks),
		"core.holdoff_deferrals": float64(s.CoreHoldoffDeferrals),
		"core.evictions":         float64(s.CoreEvictions),
		"harvest.placements":     float64(s.HarvestPlacements),
		"harvest.preemptions":    float64(s.HarvestPreemptions),
		"harvest.requeues":       float64(s.HarvestRequeues),
		"runtime.gc_cycles":      after.gcCycles - before.gcCycles,
		"runtime.gc_cpu_s":       after.gcCPUSeconds - before.gcCPUSeconds,
		"runtime.alloc_objects":  after.allocObjects - before.allocObjects,
	}
	for name, sec := range self {
		q[name] = sec
	}
	if s.SimEventsPopped > 0 {
		q["sim.ns_per_event"] = self["sim.self_s"] * 1e9 / float64(s.SimEventsPopped)
	}
	return p, q, nil
}

// perLayer projects a traced run onto the per-layer metrics: every
// declared one is printed, zero where the workload has none.
func perLayer(p pass, q map[string]float64, untracedWall float64) map[string]metric {
	ms := map[string]metric{}
	for _, d := range perLayerMetrics {
		v, ok := q[d.Name]
		if !ok {
			v, _ = p.value(d.Name)
		}
		ms[d.Name] = metric{v, d.Unit}
	}
	set := func(name string, v float64) { ms[name] = metric{v, ms[name].Unit} }
	if p.poolWall > 0 {
		set("experiments.pool_idle_pct", 100*(1-p.busy/(p.poolWall*workers)))
	}
	set("bench.trace_overhead_pct", 100*(p.wall/untracedWall-1))
	set("failed_pct", 100*float64(p.failed)/float64(max(p.attempted, 1)))
	return ms
}

// selfTimes reads `go tool pprof -traces` output and charges each
// sample to the innermost frame in a perfiso/internal/<layer> package
// as "<layer>.self_s" (main.* frames are the benchmark's own,
// "bench.self_s"). Runtime and standard-library frames below it are
// charged to that caller; samples with no such frame go to
// "runtime.bg_s". Values are CPU seconds.
func selfTimes(r io.Reader) (map[string]float64, error) {
	const sep = "-----------+"
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	started := false // past the header
	var value float64
	layer := ""
	inSample := false
	flush := func() {
		if inSample {
			name := "runtime.bg_s"
			if layer != "" {
				name = layer + ".self_s"
			}
			out[name] += value
		}
		inSample, layer = false, ""
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, sep) {
			flush()
			started = true
			continue
		}
		if !started || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSpace(line)
		if !inSample {
			// The first line of a sample is "<value>   <leaf frame>".
			v, rest, ok := strings.Cut(frame, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: no frame after value in %q", line)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value: %w", err)
			}
			value, inSample, frame = d.Seconds(), true, strings.TrimSpace(rest)
		}
		if layer == "" {
			layer = layerOf(frame)
		}
	}
	flush()
	return out, sc.Err()
}

// layerOf names the layer a frame belongs to, or "" for runtime and
// standard-library frames.
func layerOf(frame string) string {
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(frame, "perfiso/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i]
	}
	return rest
}
