package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"perfiso/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	trace := GenerateTrace(TraceConfig{Queries: 5000, Rate: 2000, Seed: 9})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(back) != len(trace) {
		t.Fatalf("length %d != %d", len(back), len(trace))
	}
	for i := range trace {
		if back[i] != trace[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], trace[i])
		}
	}
}

func TestTraceRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil || len(back) != 0 {
		t.Fatalf("empty round trip: %v, %d records", err, len(back))
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad magic":  "XXXX" + strings.Repeat("\x00", 12),
		"truncated":  "PITR\x01\x00\x00\x00",
		"wrong vers": "PITR\x09\x00\x00\x00" + strings.Repeat("\x00", 8),
	}
	for name, data := range cases {
		if _, err := ReadTrace(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadTraceRejectsTruncatedRecords covers streams whose header is
// intact but whose record payload is cut short mid-stream: after the
// first arrival field, between a record's arrival and seed, and on a
// record boundary before the advertised count is reached.
func TestReadTraceRejectsTruncatedRecords(t *testing.T) {
	trace := GenerateTrace(TraceConfig{Queries: 10, Rate: 2000, Seed: 4})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	const headerLen = 4 + 4 + 8 // magic + version + count
	const recordLen = 8 + 8     // arrival + seed
	cuts := map[string]int{
		"empty payload":          headerLen,
		"mid first arrival":      headerLen + 3,
		"between arrival & seed": headerLen + 8,
		"mid seed":               headerLen + 8 + 5,
		"record boundary":        headerLen + 4*recordLen,
		"mid last record":        len(full) - 1,
	}
	for name, cut := range cuts {
		if cut >= len(full) {
			t.Fatalf("%s: cut %d beyond stream length %d", name, cut, len(full))
		}
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("%s: truncated stream accepted", name)
		}
	}
	// Sanity: the untruncated stream still reads.
	if _, err := ReadTrace(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

func TestReadTraceRejectsNonMonotonic(t *testing.T) {
	trace := []QuerySpec{
		{ID: 0, Arrival: sim.Time(100), Seed: 1},
		{ID: 1, Arrival: sim.Time(50), Seed: 2},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("non-monotonic trace accepted")
	}
}

func TestReadTraceRejectsHugeCount(t *testing.T) {
	data := append([]byte("PITR"), 1, 0, 0, 0)
	data = append(data, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
		t.Fatal("absurd count accepted")
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	check := func(seed uint64, n uint16, rate uint16) bool {
		queries := int(n%2000) + 1
		trace := GenerateTrace(TraceConfig{
			Queries: queries,
			Rate:    float64(rate%5000) + 1,
			Seed:    seed,
		})
		var buf bytes.Buffer
		if err := WriteTrace(&buf, trace); err != nil {
			return false
		}
		back, err := ReadTrace(&buf)
		if err != nil || len(back) != len(trace) {
			return false
		}
		for i := range trace {
			if back[i] != trace[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceStats(t *testing.T) {
	trace := GenerateTrace(TraceConfig{Queries: 20000, Rate: 2000, Seed: 3})
	st := Stats(trace)
	if st.Queries != 20000 {
		t.Fatalf("queries = %d", st.Queries)
	}
	if st.MeanRate < 1800 || st.MeanRate > 2200 {
		t.Fatalf("mean rate = %.1f, want ≈2000", st.MeanRate)
	}
	if st.MinGap <= 0 || st.MaxGap < st.MinGap {
		t.Fatalf("gap bounds: min=%v max=%v", st.MinGap, st.MaxGap)
	}
	if got := Stats(nil); got.Queries != 0 || got.MeanRate != 0 {
		t.Fatalf("empty stats = %+v", got)
	}
	if got := Stats(trace[:1]); got.MinGap != 0 || got.Span != 0 {
		t.Fatalf("single-entry stats = %+v", got)
	}
}
