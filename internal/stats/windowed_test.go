package stats

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

// refWindowedLatency is WindowedLatency as it was first written, one
// histogram per window: the reference the one-open-histogram version
// must agree with.
type refWindowedLatency struct {
	window  sim.Duration
	buckets []*Histogram
}

func (w *refWindowedLatency) Add(t sim.Time, d sim.Duration) {
	idx := int(t / sim.Time(w.window))
	for len(w.buckets) <= idx {
		w.buckets = append(w.buckets, NewHistogram())
	}
	w.buckets[idx].AddDuration(d)
}

// Window returns the count and P99 of the i-th window's histogram, 0
// for one out of range.
func (w *refWindowedLatency) Window(i int) (uint64, float64) {
	if i < 0 || i >= len(w.buckets) {
		return 0, 0
	}
	return w.buckets[i].Count(), w.buckets[i].P99()
}

// checkWindows fails t unless windows lo to hi of w read as ref's do,
// count and P99 bit for bit.
func checkWindows(t *testing.T, what string, w *WindowedLatency, ref *refWindowedLatency, lo, hi int) {
	t.Helper()
	for i := lo; i <= hi; i++ {
		n, p99 := w.Window(i)
		wantN, wantP99 := ref.Window(i)
		if n != wantN || !sameBits(p99, wantP99) {
			t.Fatalf("%s: window %d reads %d samples, P99 %v; per-window histograms read %d, %v", what, i, n, p99, wantN, wantP99)
		}
	}
}

// sample is one latency observed at a time.
type sample struct {
	at  sim.Time
	lat sim.Duration
}

// replayWindows adds samples, in order, to a WindowedLatency and to the
// reference, reading the open window and its neighbours after each
// add, the way the series sampler's probe reads a window at its
// boundary event, and every window at the end.
func replayWindows(t *testing.T, what string, window sim.Duration, samples []sample) {
	t.Helper()
	w, ref := NewWindowedLatency(window), &refWindowedLatency{window: window}
	for k, s := range samples {
		w.Add(s.at, s.lat)
		ref.Add(s.at, s.lat)
		open := int(s.at / sim.Time(window))
		checkWindows(t, fmt.Sprintf("%s, after sample %d", what, k), w, ref, open-1, open+1)
	}
	checkWindows(t, what+", at the end", w, ref, -1, len(ref.buckets)+1)
}

func TestWindowedLatencyMatchesPerWindowHistograms(t *testing.T) {
	const ms = sim.Millisecond
	r := sim.NewRNG(2017)
	// 40 windows of log-normal latencies at 4,000 QPS: a sampled cell.
	var cell []sample
	for i := range 24000 {
		cell = append(cell, sample{sim.Time(i) * sim.Time(250*sim.Microsecond), r.LogNormalDuration(3500*sim.Microsecond, 0.4)})
	}
	var single []sample
	for i := range 500 {
		single = append(single, sample{sim.Time(i) * sim.Time(sim.Microsecond), r.LogNormalDuration(2*ms, 0.6)})
	}
	for _, c := range []struct {
		name    string
		window  sim.Duration
		samples []sample
	}{
		{"no samples", 10 * ms, nil},
		{"empty windows", 10 * ms, []sample{
			{sim.Time(2 * ms), 3 * ms}, {sim.Time(31 * ms), 4 * ms}, {sim.Time(32 * ms), 5 * ms},
			{sim.Time(95 * ms), 1 * ms}, {sim.Time(400 * ms), 2 * ms},
		}},
		{"sample on a boundary", 10 * ms, []sample{
			{sim.Time(9 * ms), 3 * ms}, {sim.Time(10 * ms), 9 * ms}, {sim.Time(20 * ms), 1 * ms},
			{sim.Time(20 * ms), 2 * ms}, {sim.Time(40 * ms), 7 * ms},
		}},
		{"zero latencies", 10 * ms, []sample{{0, 0}, {0, 0}, {sim.Time(15 * ms), 0}, {sim.Time(15 * ms), 3 * ms}}},
		{"40 windows of log-normal latencies", 24000 * 250 * sim.Microsecond / 40, cell},
		{"a single window", sim.Second, single},
	} {
		replayWindows(t, c.name, c.window, c.samples)
	}
}

// TestWindowedLatencyReadsOpenWindow: a window read while still open,
// as the sampler's probe reads it when its boundary event runs before a
// sample at the same instant, reads the same once that sample closes
// it.
func TestWindowedLatencyReadsOpenWindow(t *testing.T) {
	const window = 10 * sim.Millisecond
	w := NewWindowedLatency(window)
	for i := range 50 {
		w.Add(sim.Time(i)*sim.Time(sim.Microsecond), sim.Duration(i+1)*sim.Millisecond)
	}
	n, p99 := w.Window(0)
	w.Add(sim.Time(window), sim.Millisecond)
	if n2, p2 := w.Window(0); n2 != n || !sameBits(p2, p99) || n != 50 {
		t.Fatalf("window 0 read %d, %v while open and %d, %v once closed, want 50 samples both times", n, p99, n2, p2)
	}
	if n, p99 := w.Window(1); n != 1 || p99 != float64(sim.Millisecond) {
		t.Fatalf("window 1 reads %d, %v, want 1 sample of 1 ms", n, p99)
	}
}

// TestWindowedLatencyPanicsOnEarlierWindow: a sample in a window before
// the open one panics instead of landing in a window already closed.
func TestWindowedLatencyPanicsOnEarlierWindow(t *testing.T) {
	const window = 10 * sim.Millisecond
	for _, at := range []sim.Time{0, sim.Time(29 * sim.Millisecond), -1} {
		w := NewWindowedLatency(window)
		w.Add(sim.Time(30*sim.Millisecond), sim.Millisecond)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			w.Add(at, sim.Millisecond)
			return ""
		}()
		if !strings.Contains(msg, "after window 3 opened") {
			t.Errorf("sample at %v after window 3 opened: panic %q", at, msg)
		}
	}
}

// FuzzWindowedLatency requires a WindowedLatency to read as the
// per-window histograms do, on samples decoded from the input: two
// bytes give the window width, 1 to 65,536 µs; then each sample takes
// six, a two-byte gap after the previous sample in µs and a four-byte
// latency in ns, all little-endian. Times are nondecreasing by
// construction, as the engine's clock is. Decoding stops at the first
// sample past window 4,096, which bounds the reference's histograms.
func FuzzWindowedLatency(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		window := (sim.Duration(binary.LittleEndian.Uint16(data)) + 1) * sim.Microsecond
		var samples []sample
		var at sim.Time
		for data = data[2:]; len(data) >= 6; data = data[6:] {
			at += sim.Time(binary.LittleEndian.Uint16(data)) * sim.Time(sim.Microsecond)
			if at/sim.Time(window) > 4096 {
				break
			}
			samples = append(samples, sample{at, sim.Duration(binary.LittleEndian.Uint32(data[2:]))})
		}
		replayWindows(t, "fuzz", window, samples)
	})
}
