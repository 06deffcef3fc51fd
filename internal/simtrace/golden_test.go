package simtrace_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"perfiso/internal/indexserve"
	"perfiso/internal/isolation"
	"perfiso/internal/node"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
	"perfiso/internal/workload"
)

const goldenChrome = "testdata/cell.chrome.json"

// goldenTracer records a short real traced cell: IndexServe at 4000 QPS
// beside the 48-thread CPU bully under blind isolation with 8 buffer
// cores, cut after 12 ms of simulated time. The deadline is shortened
// so some queries drop, and the checkpoint fires early, so the capture
// holds every event kind and every call site's args (core slices with
// "tid", query spans with "workers", "dropped" true and false and
// "latency_us", checkpoint instants with "query", buffer decisions with
// "allocated"). Synthetic events add the string args the cluster-level
// call sites emit and strings that need escaping.
func goldenTracer(t testing.TB) *simtrace.Tracer {
	return tracedCell(t, 12*sim.Millisecond, 4*sim.Millisecond)
}

// tracedCell runs the golden cell's configuration for span of
// simulated time with the given query deadline, then adds the
// synthetic events.
func tracedCell(t testing.TB, span, deadline sim.Duration) *simtrace.Tracer {
	tr := simulatedCell(t, span, deadline)
	end := sim.Time(span)
	tr.NameTrack(60, "core \"60\"\t\\ ☃ ")
	tr.Instant(end, simtrace.TrackControl, "memory-evict", "controller",
		simtrace.String("reason", "job over memory limit"))
	tr.Instant(end, simtrace.TrackControl, "placement", "harvest",
		simtrace.String("job", "batch \"q\"\n☃"), simtrace.Int("task", 12))
	tr.Slice(end, 0, 60, "sl\\ice", "", simtrace.Bool("ok", true))
	tr.Begin(-5, -3, "query", "query")
	tr.End(end, -3, "query", "query", simtrace.Bool("dropped", true), simtrace.Int("latency_us", -1))
	return tr
}

// simulatedCell runs the golden cell's configuration for span of
// simulated time with the given query deadline. Its trace holds only
// what the simulator's own call sites record.
func simulatedCell(t testing.TB, span, deadline sim.Duration) *simtrace.Tracer {
	t.Helper()
	eng := sim.NewEngine()
	cfg := node.DefaultConfig()
	cfg.Seed = 7
	is := indexserve.DefaultConfig()
	is.Deadline = deadline
	is.SpecCheckpoint = 2 * sim.Millisecond
	cfg.IndexServe = &is
	n := node.New(eng, cfg)

	bully := workload.NewCPUBully(n.CPU, "bully", 48)
	bully.Start()
	job := n.OS.CreateJob("secondary")
	job.Assign(bully.Proc)
	pol := &isolation.Blind{BufferCores: 8}
	if err := pol.Install(n.OS, job); err != nil {
		t.Fatal(err)
	}

	tr := simtrace.New()
	n.CPU.SetSimTracer(tr)
	n.Server.SetSimTracer(tr)
	pol.Governor().SetSimTracer(tr)

	// One query per 200 µs of span: more than 4000 QPS delivers in it.
	queries := int(span / (200 * sim.Microsecond))
	trace := workload.GenerateTrace(workload.TraceConfig{Queries: queries, Rate: 4000, Seed: 7})
	workload.NewClient(eng, func(q workload.QuerySpec) { n.Server.Submit(q) }).Replay(trace)
	eng.Run(sim.Time(span))
	return tr
}

// TestChromeGolden byte-compares the Chrome export of goldenTracer
// with the committed file. Run with UPDATE_GOLDENS=1 to regenerate it
// after an intentional format change.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := simtrace.WriteChrome(&buf, goldenTracer(t)); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenChrome), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenChrome, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenChrome)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDENS=1 go test ./internal/simtrace)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export differs from %s (lengths %d vs %d); if the change is intentional regenerate with UPDATE_GOLDENS=1",
			goldenChrome, len(got), len(want))
	}
	if err := simtrace.ValidateChrome(got); err != nil {
		t.Errorf("golden trace fails validation: %v", err)
	}
}

// TestValidateChromeReadsExportsCompact requires ValidateChrome's
// one-pass reader to take whole every file WriteChrome writes, so a
// drift in the export layout that would send exports to encoding/json
// fails here: the golden export, a simulated cell, and each of
// EscapeInputs as an event's name, cat, track name, arg key and arg
// value.
func TestValidateChromeReadsExportsCompact(t *testing.T) {
	golden, err := os.ReadFile(goldenChrome)
	if err != nil {
		t.Fatal(err)
	}
	export := func(tr *simtrace.Tracer) []byte {
		var buf bytes.Buffer
		if err := simtrace.WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"golden export":  golden,
		"simulated cell": export(simulatedCell(t, 100*sim.Millisecond, indexserve.DefaultConfig().Deadline)),
	}
	for label, in := range simtrace.EscapeInputs {
		tr := simtrace.New()
		tr.NameTrack(3, in)
		tr.Instant(1, 3, in, in, simtrace.String(in, in))
		cases[label] = export(tr)
	}
	for name, data := range cases {
		ok, err := simtrace.ReadsCompact(data)
		if err != nil {
			t.Errorf("%s fails validation: %v", name, err)
		}
		if !ok {
			t.Errorf("%s: the one-pass reader gave the file to encoding/json", name)
		}
	}
}

// benchSpans are the simulated spans the export benchmarks trace from
// the golden cell at the default deadline: 100 ms, about 8k events, and
// 1 s, about 80k, where ordering the events costs more per event.
var benchSpans = []struct {
	name string
	span sim.Duration
}{{"100ms", 100 * sim.Millisecond}, {"1s", sim.Second}}

// benchTrace traces span of the golden cell and exports it.
func benchTrace(b *testing.B, span sim.Duration) (*simtrace.Tracer, []byte) {
	tr := tracedCell(b, span, indexserve.DefaultConfig().Deadline)
	var buf bytes.Buffer
	if err := simtrace.WriteChrome(&buf, tr); err != nil {
		b.Fatal(err)
	}
	return tr, buf.Bytes()
}

// BenchmarkTracerRecord times recording one event in a traced cell's
// mix: of every 16 events, 13 are core slices named by two processes,
// then a query's begin and end and a controller instant, each with the
// args its simulator call site attaches. A fresh tracer takes over
// every 64k events, so memory stays bounded and B/op is about the
// storage one event takes.
func BenchmarkTracerRecord(b *testing.B) {
	const perTracer = 1 << 16
	procs := [2]string{"indexserve", "bully"}
	tr := simtrace.New()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if tr.Len() == perTracer {
			tr = simtrace.New()
		}
		ts := sim.Time(i) * 1000
		switch k := i & 15; k {
		case 13:
			tr.Begin(ts, i, "query", "query", simtrace.Int("workers", 4))
		case 14:
			tr.End(ts, i-1, "query", "query", simtrace.Bool("dropped", false), simtrace.Int("latency_us", 1200))
		case 15:
			tr.Instant(ts, simtrace.TrackControl, "buffer-grow", "controller", simtrace.Int("allocated", 40))
		default:
			tr.Slice(ts, 900, k, procs[k&1], "cpu", simtrace.Int("tid", i&63))
		}
		i++
	}
}

func BenchmarkWriteChrome(b *testing.B) {
	for _, s := range benchSpans {
		b.Run(s.name, func(b *testing.B) {
			tr, data := benchTrace(b, s.span)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := simtrace.WriteChrome(io.Discard, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidateChrome checks each span's export as WriteChrome
// writes it, which the one-pass reader takes, and the same trace
// through json.Indent (indented/<span>), which encoding/json decodes.
func BenchmarkValidateChrome(b *testing.B) {
	for _, layout := range []string{"", "indented/"} {
		for _, s := range benchSpans {
			b.Run(layout+s.name, func(b *testing.B) {
				_, data := benchTrace(b, s.span)
				if layout != "" {
					var buf bytes.Buffer
					if err := json.Indent(&buf, data, "", "  "); err != nil {
						b.Fatal(err)
					}
					data = buf.Bytes()
				}
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for b.Loop() {
					if err := simtrace.ValidateChrome(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
