package simtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

func sampleTracer() *Tracer {
	tr := New()
	tr.NameTrack(0, "core 0")
	tr.NameTrack(1, "core 1")
	tr.Begin(10, 7, "query", "query", Int("qps", 2000))
	tr.Slice(20, 5, 0, "primary", "cpu")
	tr.Instant(22, TrackControl, "buffer-grow", "controller", Int("cores", 41))
	tr.Slice(25, 3, 1, "bully", "cpu")
	tr.End(30, 7, "query", "query", Bool("dropped", false))
	return tr
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.NameTrack(0, "x")
	tr.Slice(0, 1, 0, "a", "b")
	tr.Begin(0, 1, "a", "b")
	tr.End(0, 1, "a", "b")
	tr.Instant(0, 0, "a", "b")
	if tr.Len() != 0 || tr.Events() != nil || tr.Tracks() != nil {
		t.Fatal("nil tracer captured something")
	}
}

// TestRecordingDoesNotAllocate pins doc.go's cost contract. Once
// storage is warm, recording an event with typed args allocates
// nothing, and every method on a nil tracer allocates nothing.
func TestRecordingDoesNotAllocate(t *testing.T) {
	const runs = 100
	tr := New()
	record := func() {
		tr.Slice(1, 2, 3, "bully", "cpu", Int("tid", 7))
		tr.Begin(1, 9, "query", "query", Int("workers", 4))
		tr.End(2, 9, "query", "query", Bool("dropped", false), Int("latency_us", 12))
		tr.Instant(3, TrackControl, "memory-evict", "controller", String("reason", "low"))
	}
	for tr.Len() < 4*(runs+1) {
		record()
	}
	tr.n = 0 // rewind over the warmed chunks
	if a := testing.AllocsPerRun(runs, record); a != 0 {
		t.Errorf("recording allocates %v per 4 events, want 0", a)
	}
	if tr.Len() != 4*(runs+1) {
		t.Fatalf("recorded %d events, want %d", tr.Len(), 4*(runs+1))
	}

	var off *Tracer
	if a := testing.AllocsPerRun(runs, func() {
		off.NameTrack(0, "core 0")
		off.Slice(1, 2, 3, "bully", "cpu", Int("tid", 7))
		off.Begin(1, 9, "query", "query", Int("workers", 4))
		off.End(2, 9, "query", "query", Bool("dropped", false), Int("latency_us", 12))
		off.Instant(3, TrackControl, "memory-evict", "controller", String("reason", "low"))
		_ = off.Enabled()
		_ = off.Len()
		_ = off.Events()
		_ = off.Tracks()
	}); a != 0 {
		t.Errorf("nil tracer allocates %v per call set, want 0", a)
	}
}

// TestRecordIsPointerFree pins doc.go's storage contract: a stored
// event takes at most 24 bytes, and neither it, a wide-table entry nor
// a shape holds a pointer, so the GC never scans the chunks or tables.
func TestRecordIsPointerFree(t *testing.T) {
	if size := reflect.TypeOf(record{}).Size(); size > 24 {
		t.Errorf("record is %d bytes, want at most 24", size)
	}
	for _, v := range []any{record{}, values{}, shape{}} {
		typ := reflect.TypeOf(v)
		if path := pointerPath(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
}

// pointerPath returns the path to the first value in typ the GC would
// scan, or "" when it has none.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		return pointerPath(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	}
	return path + " (" + typ.String() + ")"
}

func TestWriteChromeDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, sampleTracer()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, sampleTracer()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same capture differ")
	}
	if err := ValidateChrome(a.Bytes()); err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
	for _, want := range []string{`"ph":"X"`, `"ph":"b"`, `"ph":"e"`, `"ph":"i"`, `"name":"core 1"`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// TestEventsRebuildRecords checks that Events returns every field as
// recorded, each arg type and the empty category included.
func TestEventsRebuildRecords(t *testing.T) {
	tr := New()
	tr.Slice(20, 5, 3, "bully", "", Int("tid", -7))
	tr.Begin(21, 9, "query", "query", Int("workers", 4))
	tr.Instant(22, TrackControl, "memory-evict", "controller", String("reason", "low"), Bool("urgent", true))
	tr.End(23, 9, "query", "query", Bool("dropped", false), String("reason", ""))
	want := []Event{
		{Seq: 0, TS: 20, Dur: 5, Kind: KindSlice, Name: "bully", Track: 3, Args: [MaxArgs]Arg{Int("tid", -7)}},
		{Seq: 1, TS: 21, Kind: KindBegin, Name: "query", Cat: "query", Track: TrackControl, ID: 9,
			Args: [MaxArgs]Arg{Int("workers", 4)}},
		{Seq: 2, TS: 22, Kind: KindInstant, Name: "memory-evict", Cat: "controller", Track: TrackControl,
			Args: [MaxArgs]Arg{String("reason", "low"), Bool("urgent", true)}},
		{Seq: 3, TS: 23, Kind: KindEnd, Name: "query", Cat: "query", Track: TrackControl, ID: 9,
			Args: [MaxArgs]Arg{Bool("dropped", false), String("reason", "")}},
	}
	if got := tr.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("events\n%+v\nwant\n%+v", got, want)
	}
}

// TestWideValuesRoundTrip records values on both sides of each narrow
// field's range, one wide value per event: a 3 s slice, an async ID of
// 1<<35, track 40,000 and an Int arg of 1<<40 in either arg slot go to
// the wide table, the int32 and int16 limits stay in the record, and
// Events and WriteChrome return every value whole.
func TestWideValuesRoundTrip(t *testing.T) {
	tr := New()
	tr.Slice(1000, 3*sim.Second, 3, "long", "cpu", Int("tid", 7))
	tr.Begin(2000, 1<<35, "query", "query", Int("workers", 4))
	tr.Instant(3000, 40_000, "buffer-grow", "controller", String("reason", "low"))
	tr.Slice(4000, 5, 3, "long", "cpu", Int("tid", 1<<40))
	tr.End(5000, 1<<35, "query", "query", Bool("dropped", true), Int("latency_us", math.MinInt32-1))
	tr.Slice(6000, math.MaxInt32, math.MaxInt16, "edge", "cpu", Int("tid", math.MinInt32))
	tr.Begin(7000, math.MinInt32, "query", "query", Int("workers", math.MaxInt32))
	tr.Instant(8000, math.MinInt16, "buffer-grow", "controller", String("reason", "low"))
	want := []Event{
		{Seq: 0, TS: 1000, Dur: 3 * sim.Second, Kind: KindSlice, Name: "long", Cat: "cpu", Track: 3,
			Args: [MaxArgs]Arg{Int("tid", 7)}},
		{Seq: 1, TS: 2000, Kind: KindBegin, Name: "query", Cat: "query", Track: TrackControl, ID: 1 << 35,
			Args: [MaxArgs]Arg{Int("workers", 4)}},
		{Seq: 2, TS: 3000, Kind: KindInstant, Name: "buffer-grow", Cat: "controller", Track: 40_000,
			Args: [MaxArgs]Arg{String("reason", "low")}},
		{Seq: 3, TS: 4000, Dur: 5, Kind: KindSlice, Name: "long", Cat: "cpu", Track: 3,
			Args: [MaxArgs]Arg{Int("tid", 1<<40)}},
		{Seq: 4, TS: 5000, Kind: KindEnd, Name: "query", Cat: "query", Track: TrackControl, ID: 1 << 35,
			Args: [MaxArgs]Arg{Bool("dropped", true), Int("latency_us", math.MinInt32-1)}},
		{Seq: 5, TS: 6000, Dur: math.MaxInt32, Kind: KindSlice, Name: "edge", Cat: "cpu", Track: math.MaxInt16,
			Args: [MaxArgs]Arg{Int("tid", math.MinInt32)}},
		{Seq: 6, TS: 7000, Kind: KindBegin, Name: "query", Cat: "query", Track: TrackControl, ID: math.MinInt32,
			Args: [MaxArgs]Arg{Int("workers", math.MaxInt32)}},
		{Seq: 7, TS: 8000, Kind: KindInstant, Name: "buffer-grow", Cat: "controller", Track: math.MinInt16,
			Args: [MaxArgs]Arg{String("reason", "low")}},
	}
	if got := tr.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("events\n%+v\nwant\n%+v", got, want)
	}
	if len(tr.wide) != 5 {
		t.Errorf("%d events in the wide table, want 5", len(tr.wide))
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`{"name":"long","cat":"cpu","ph":"X","pid":0,"tid":3,"ts":1.000,"dur":3000000.000,"args":{"tid":"7"}}`,
		`{"name":"query","cat":"query","ph":"b","pid":0,"tid":999,"id":"34359738368","ts":2.000,"args":{"workers":"4"}}`,
		`{"name":"buffer-grow","cat":"controller","ph":"i","s":"t","pid":0,"tid":40000,"ts":3.000,"args":{"reason":"low"}}`,
		`{"name":"long","cat":"cpu","ph":"X","pid":0,"tid":3,"ts":4.000,"dur":0.005,"args":{"tid":"1099511627776"}}`,
		`{"name":"query","cat":"query","ph":"e","pid":0,"tid":999,"id":"34359738368","ts":5.000,"args":{"dropped":"true","latency_us":"-2147483649"}}`,
		`{"name":"edge","cat":"cpu","ph":"X","pid":0,"tid":32767,"ts":6.000,"dur":2147483.647,"args":{"tid":"-2147483648"}}`,
		`{"name":"query","cat":"query","ph":"b","pid":0,"tid":999,"id":"-2147483648","ts":7.000,"args":{"workers":"2147483647"}}`,
	} {
		if !strings.Contains(buf.String(), "\n"+line+",\n") {
			t.Errorf("export lacks the line\n%s\nin\n%s", line, buf.Bytes())
		}
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("export fails validation: %v", err)
	}
}

// TestShapeCacheChecksEveryField makes each field of an event's shape
// the only difference from a cached shape in the slot the event hashes
// to, as a collision would, and requires the event to keep its own
// shape.
func TestShapeCacheChecksEveryField(t *testing.T) {
	base := func(tr *Tracer) { tr.Instant(1, 0, "query", "query", Int("workers", 4), Int("tid", 2)) }
	for name, variant := range map[string]func(*Tracer){
		"name":  func(tr *Tracer) { tr.Instant(2, 0, "queue", "query", Int("workers", 4), Int("tid", 2)) },
		"cat":   func(tr *Tracer) { tr.Instant(2, 0, "query", "cpu", Int("workers", 4), Int("tid", 2)) },
		"key 0": func(tr *Tracer) { tr.Instant(2, 0, "query", "query", Int("dropped", 4), Int("tid", 2)) },
		"key 1": func(tr *Tracer) { tr.Instant(2, 0, "query", "query", Int("workers", 4), Int("id", 2)) },
		"type":  func(tr *Tracer) { tr.Instant(2, 0, "query", "query", Int("workers", 4), Bool("tid", true)) },
		"args":  func(tr *Tracer) { tr.Instant(2, 0, "query", "query", Int("workers", 4)) },
		"kind":  func(tr *Tracer) { tr.Begin(2, 0, "query", "query", Int("workers", 4), Int("tid", 2)) },
	} {
		ref := New()
		variant(ref)
		want := ref.Events()[0]

		tr := New()
		base(tr)
		var cached hotShape
		for _, h := range tr.shapes.hot {
			if h.live {
				cached = h
			}
		}
		probe := New()
		variant(probe)
		for i, h := range probe.shapes.hot {
			if h.live {
				tr.shapes.hot[i] = cached
			}
		}
		variant(tr)
		got := tr.Events()[1]
		got.Seq, got.TS = want.Seq, want.TS
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a colliding cached shape turned\n%+v\ninto\n%+v", name, want, got)
		}
	}
	// An empty slot matches no event, not even an unnamed slice.
	tr := New()
	tr.Instant(1, 0, "query", "query")
	tr.Slice(2, 1, 0, "", "")
	if got := tr.Events()[1]; got.Kind != KindSlice || got.Name != "" {
		t.Errorf("an unnamed slice with no args reads back as %+v", got)
	}
}

// TestEventsSortedBySimTimeThenSeq records times out of order, with a
// tie, a negative time and one far enough out that the sort takes a
// pass for each of several bytes.
func TestEventsSortedBySimTimeThenSeq(t *testing.T) {
	tr := New()
	tr.Instant(1<<40, 0, "latest", "c")
	tr.Instant(50, 0, "late", "c")
	tr.Instant(10, 0, "early", "c")
	tr.Instant(10, 0, "early2", "c")
	tr.Instant(-5, 0, "negative", "c")
	var got []string
	for _, e := range tr.Events() {
		got = append(got, e.Name)
	}
	if want := "negative early early2 late latest"; strings.Join(got, " ") != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestOrderMatchesStableSort checks the order of events against a
// stable sort by TS alone, with captures of up to 5,000 events whose
// times take from 1 to 64 bits, many of them tied, at each end of the
// int64 range, or drawn from its extremes. A capture whose time range
// and sequence numbers need more than 64 bits takes the comparison
// sort, and only such a capture.
func TestOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type gen struct {
		name string
		ts   func() sim.Time
	}
	var gens []gen
	for _, span := range []uint{1, 8, 20, 40, 51, 63} {
		for _, base := range []int64{0, math.MinInt64, math.MaxInt64 - int64(uint64(1)<<span-1)} {
			gens = append(gens, gen{fmt.Sprintf("%d bits from %d", span, base),
				func() sim.Time { return sim.Time(base + int64(rng.Uint64()>>(64-span))) }})
		}
	}
	extremes := []sim.Time{math.MinInt64, -1, 0, math.MaxInt64}
	gens = append(gens,
		gen{"64 bits", func() sim.Time { return sim.Time(rng.Uint64()) }},
		gen{"extremes", func() sim.Time { return extremes[rng.Intn(len(extremes))] }})
	for _, n := range []int{1, 2, 33, 100, 1025, 5000} {
		for _, g := range gens {
			tr := New()
			ts := make([]sim.Time, n)
			for i := range ts {
				ts[i] = g.ts()
				tr.Instant(ts[i], 0, "e", "c")
			}
			seqs := make([]int, n)
			for i := range seqs {
				seqs[i] = i
			}
			sort.SliceStable(seqs, func(a, b int) bool { return ts[seqs[a]] < ts[seqs[b]] })
			keys, mask := tr.order()
			for i, k := range keys {
				if int(k&mask) != seqs[i] {
					t.Fatalf("n=%d, %s: position %d holds event %d, want %d", n, g.name, i, k&mask, seqs[i])
				}
			}
			lo, hi := slices.Min(ts), slices.Max(ts)
			fallback := bits.Len64(uint64(hi)-uint64(lo))+bits.Len(uint(n-1)) > 64
			if (mask == math.MaxUint64) != fallback {
				t.Errorf("n=%d, %s: mask %#x, want the comparison sort %v", n, g.name, mask, fallback)
			}
		}
	}
	tr := New()
	tr.Instant(math.MaxInt64, 0, "max", "c")
	tr.Instant(0, 0, "zero", "c")
	tr.Instant(math.MinInt64, 0, "min", "c")
	tr.Instant(math.MaxInt64, 0, "max2", "c")
	var got []string
	for _, e := range tr.Events() {
		got = append(got, e.Name)
	}
	if want := "min zero max max2"; strings.Join(got, " ") != want {
		t.Errorf("order %q, want %q", got, want)
	}
	if _, mask := tr.order(); mask != math.MaxUint64 {
		t.Errorf("a capture from MinInt64 to MaxInt64 sorts radix keys (mask %#x)", mask)
	}
}

// escapeInputs hold what strconv.Quote escapes in ways JSON lacks, raw
// invalid UTF-8 and runes WriteChrome keeps as they are.
var escapeInputs = map[string]string{
	"control": "a\x00\x01\a\b\f\n\r\t\v\x1f\x7f z",
	"invalid": "x\xff\xfe y\xc3 \xe2\x98",
	"astral":  "tag\U000E0001 emoji\U0001F600 max\U0010FFFF",
	"kept":    "q\"b\\s \u2028 \u00e9 \u2603",
}

// TestWriteChromeEscapesAsJSON exports strings that strconv.Quote
// renders with escapes JSON lacks (\a, \v, \xNN, \UXXXXXXXX) in an
// event's name, its cat and a string arg. The export must validate and
// decode back to the input, each invalid UTF-8 byte read as U+FFFD.
func TestWriteChromeEscapesAsJSON(t *testing.T) {
	for label, in := range escapeInputs {
		tr := New()
		tr.Instant(1, TrackControl, in, in, String("s", in))
		var buf bytes.Buffer
		if err := WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if err := ValidateChrome(buf.Bytes()); err != nil {
			t.Errorf("%s: export fails validation: %v\n%s", label, err, buf.Bytes())
			continue
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Cat  string
				Args map[string]string
			}
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Errorf("%s: export is not JSON: %v", label, err)
			continue
		}
		want := string([]rune(in)) // one U+FFFD per invalid byte
		ev := doc.TraceEvents[len(doc.TraceEvents)-1]
		if ev.Ph != "i" || ev.Name != want || ev.Cat != want || ev.Args["s"] != want {
			t.Errorf("%s: decoded name %q cat %q arg %q, want %q", label, ev.Name, ev.Cat, ev.Args["s"], want)
		}
	}
}

// chromeDefects are traces the validator must reject, one per rule.
var chromeDefects = map[string]string{
	"garbage":            `not json`,
	"empty":              `{"traceEvents":[]}`,
	"unknown phase":      `{"traceEvents":[{"name":"a","ph":"Z","ts":1}]}`,
	"slice without dur":  `{"traceEvents":[{"name":"a","ph":"X","ts":1}]}`,
	"slice without ts":   `{"traceEvents":[{"name":"a","ph":"X","dur":1}]}`,
	"negative dur":       `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":-2}]}`,
	"end without begin":  `{"traceEvents":[{"name":"a","ph":"e","id":"1","ts":1}]}`,
	"async without id":   `{"traceEvents":[{"name":"a","ph":"b","ts":1}]}`,
	"instant without ts": `{"traceEvents":[{"name":"a","ph":"i","tid":3}]}`,
	"missing name":       `{"traceEvents":[{"ph":"i","ts":1}]}`,
	"events not array":   `{"traceEvents":{"name":"a","ph":"i","ts":1}}`,
	"ts regression": `{"traceEvents":[{"name":"a","ph":"i","ts":5,"tid":3},` +
		`{"name":"b","ph":"i","ts":4,"tid":3}]}`,
}

func TestValidateChromeCatchesDefects(t *testing.T) {
	for name, data := range chromeDefects {
		if err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted a defective trace", name)
		}
		if err := refValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: reference validator accepted a defective trace", name)
		}
	}
	ok := `{"traceEvents":[{"name":"a","ph":"b","id":"1","ts":1}]}`
	if err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("open async span at end of capture should be legal: %v", err)
	}
	// A syntax error after a rule violation is what the reference
	// reports, so it must be what ValidateChrome reports too.
	both := `{"traceEvents":[{"name":"a","ph":"Z","ts":1},{"name":"b"]}`
	if err := ValidateChrome([]byte(both)); err == nil || !strings.HasPrefix(err.Error(), "parse:") {
		t.Errorf("rule violation before a syntax error: got %v, want the parse error", err)
	}
}

// TestValidateChromeLayoutsAgree re-renders the golden export and each
// defect that json.Indent accepts with white space inside every
// element, which the one-pass reader gives to encoding/json, and
// requires the verdict of the compact form. A rule violation must also
// give the same message; a parse error's offset moves with the white
// space.
func TestValidateChromeLayoutsAgree(t *testing.T) {
	golden, err := os.ReadFile(goldenChrome)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{"golden": golden}
	for name, c := range chromeDefects {
		cases[name] = []byte(c)
	}
	for name, data := range cases {
		var buf bytes.Buffer
		if json.Indent(&buf, data, "", "  ") != nil {
			continue
		}
		if ok, _ := readCompact(buf.Bytes()); ok {
			t.Errorf("%s: the one-pass reader took the indented copy", name)
		}
		indented, compact := ValidateChrome(buf.Bytes()), ValidateChrome(data)
		switch {
		case (indented == nil) != (compact == nil):
			t.Errorf("%s: indented gives %v, compact %v", name, indented, compact)
		case compact != nil && !strings.HasPrefix(compact.Error(), "parse:") && indented.Error() != compact.Error():
			t.Errorf("%s: indented gives %q, compact %q", name, indented, compact)
		}
	}
}

// TestAsyncSpanIDsMatchAsRawBytes pairs async begins and ends whose ids
// are spelled differently. An end matches a begin only when cat, name
// and the id's raw JSON bytes are all equal, which is what the reference
// reads, whether the validator keys the span by the id's value or by
// its bytes.
func TestAsyncSpanIDsMatchAsRawBytes(t *testing.T) {
	// span writes one async event; cat, name and id are raw JSON.
	span := func(ph, cat, name, id string) string {
		return fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"%s","ts":1,"id":%s}`, name, cat, ph, id)
	}
	trace := func(events ...string) string {
		return `{"traceEvents":[` + strings.Join(events, ",") + `]}`
	}
	pair := func(b, e string) string {
		return trace(span("b", `"c"`, `"q"`, b), span("e", `"c"`, `"q"`, e))
	}
	for _, c := range []struct {
		name  string
		trace string
		ok    bool
	}{
		{"bare ids", pair(`7`, `7`), true},
		{"string ids", pair(`"-7"`, `"-7"`), true},
		{"bare begin, string end", pair(`7`, `"7"`), false},
		{"string begin, bare end", pair(`"7"`, `7`), false},
		{"minus zero", pair(`"-0"`, `"-0"`), true},
		{"minus zero against zero", pair(`"-0"`, `"0"`), false},
		{"bare minus zero against zero", pair(`-0`, `0`), false},
		{"leading zero", pair(`"007"`, `"7"`), false},
		{"18 digits", pair(`"999999999999999999"`, `"999999999999999999"`), true},
		{"19 digits", pair(`"1234567890123456789"`, `"1234567890123456789"`), true},
		{"19 digits, last differs", pair(`"1234567890123456789"`, `"1234567890123456788"`), false},
		{"exponent against integer", pair(`1e3`, `1000`), false},
		{"escaped digit", pair(`"\u0037"`, `"7"`), false},
		{"other name", trace(span("b", `"c"`, `"q"`, `"1"`), span("e", `"c"`, `"r"`, `"1"`)), false},
		{"other cat", trace(span("b", `"c"`, `"q"`, `"1"`), span("e", `"d"`, `"q"`, `"1"`)), false},
		{"nested twice", trace(span("b", `"c"`, `"q"`, `"1"`), span("b", `"c"`, `"q"`, `"1"`),
			span("e", `"c"`, `"q"`, `"1"`), span("e", `"c"`, `"q"`, `"1"`)), true},
		{"ended once too often", trace(span("b", `"c"`, `"q"`, `"1"`), span("e", `"c"`, `"q"`, `"1"`),
			span("e", `"c"`, `"q"`, `"1"`)), false},
		// cat and name join with a NUL, so a NUL moved between them names
		// the same span, in the reference as here.
		{"NUL between cat and name", trace(span("b", `"a\u0000b"`, `"c"`, `"1"`),
			span("e", `"a"`, `"b\u0000c"`, `"1"`)), true},
	} {
		got, want := ValidateChrome([]byte(c.trace)), refValidateChrome([]byte(c.trace))
		if (got == nil) != c.ok || (want == nil) != c.ok {
			t.Errorf("%s: ValidateChrome = %v, reference = %v, want ok=%v on %s", c.name, got, want, c.ok, c.trace)
		}
	}
}

// TestAsyncSpansDoNotAllocate validates traces of 100 and 10,000 async
// spans, each begun and ended in turn under its own integer id, and
// requires the same allocations for both: keying an open span allocates
// nothing once its cat and name have been seen.
func TestAsyncSpansDoNotAllocate(t *testing.T) {
	allocs := func(spans int) float64 {
		var b strings.Builder
		b.WriteString(`{"traceEvents":[`)
		for i := 0; i < spans; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"name":"q","cat":"query","ph":"b","pid":0,"tid":1,"ts":%d,"id":"%d"},`, i, i)
			fmt.Fprintf(&b, `{"name":"q","cat":"query","ph":"e","pid":0,"tid":1,"ts":%d,"id":"%d"}`, i, i)
		}
		b.WriteString(`]}`)
		data := []byte(b.String())
		return testing.AllocsPerRun(5, func() {
			if err := ValidateChrome(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(100), allocs(10_000); many != few {
		t.Fatalf("%v allocations for 10,000 spans against %v for 100, want the same", many, few)
	}
}

func TestBlameTableSelectsDeterministicQuantiles(t *testing.T) {
	var records []QueryRecord
	for i := 0; i < 1000; i++ {
		records = append(records, QueryRecord{
			ID:      1000 - i, // ids reversed vs latency to exercise the sort
			Latency: sim.Duration(i+1) * sim.Millisecond,
			Service: sim.Duration(i+1) * sim.Millisecond,
		})
	}
	cf := logOf(records).BlameTable()
	if cf.Queries != 1000 {
		t.Fatalf("queries = %d", cf.Queries)
	}
	want := map[string]sim.Duration{
		"p50":  500 * sim.Millisecond,
		"p90":  900 * sim.Millisecond,
		"p99":  990 * sim.Millisecond,
		"p999": 999 * sim.Millisecond,
	}
	for _, row := range cf.Rows {
		if row.Record.Latency != want[row.Quantile] {
			t.Errorf("%s: latency %v, want %v", row.Quantile, row.Record.Latency, want[row.Quantile])
		}
	}
	if logOf(nil).BlameTable() != nil {
		t.Error("empty record set should yield nil forensics")
	}
}

// TestBlameTableMatchesSort checks the selection against choosing by a
// full sort, at sizes around the quantiles' rounding, on random records
// with many tied latencies, on sorted, reversed and all-tied inputs,
// and on records at the top of the log's range: tied latencies up to
// 2^32-2 ns and every cause drawn up to 2^32-1 ns. The random, tied
// and limits shapes leave every even ID without a record, as a cell
// leaves the IDs that finished during warmup.
func TestBlameTableMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 17, 100, 999, 1000, 1001, 5000, 20011} {
		for _, shape := range []string{"random", "sorted", "reversed", "tied", "limits"} {
			records := make([]QueryRecord, n)
			ids := rng.Perm(n)
			for i := range records {
				r := QueryRecord{ID: 2*ids[i] + 1, Latency: sim.Duration(rng.Intn(n/50 + 3)), Service: sim.Duration(i)}
				switch shape {
				case "sorted":
					r.ID, r.Latency = i, sim.Duration(i/3)
				case "reversed":
					r.ID, r.Latency = n-1-i, sim.Duration((n-i)/3)
				case "tied":
					r.Latency = 7
				case "limits":
					r.Dropped = rng.Intn(2) == 0
					r.Latency = noRecord - 1 - r.Latency
					for _, f := range recordFields[2:] {
						f.set(&r, rng.Int63n(math.MaxUint32+1))
					}
				}
				records[i] = r
			}
			want := blameBySort(records)
			if got := logOf(records).BlameTable(); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: selected %+v, sorting picks %+v", n, shape, got, want)
			}
		}
	}
}

// logOf appends records to a new log over the IDs from 0 to their
// greatest.
func logOf(records []QueryRecord) *RecordLog {
	n := 0
	for _, r := range records {
		n = max(n, r.ID+1)
	}
	l := NewRecordLog(n)
	for _, r := range records {
		l.Append(r)
	}
	return l
}

// blameBySort is the blame table by sorting every record, as it was
// first written: the reference the selection must agree with.
func blameBySort(records []QueryRecord) *CellForensics {
	rs := append([]QueryRecord(nil), records...)
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Latency != rs[j].Latency {
			return rs[i].Latency < rs[j].Latency
		}
		return rs[i].ID < rs[j].ID
	})
	cf := &CellForensics{Queries: len(rs)}
	for _, q := range Quantiles {
		idx := min(max(int(float64(len(rs))*quantileValues[q]+0.999999)-1, 0), len(rs)-1)
		cf.Rows = append(cf.Rows, BlameRow{Quantile: q, Record: rs[idx]})
	}
	return cf
}

func TestQueryRecordCauseAccessors(t *testing.T) {
	r := QueryRecord{Service: 1, Queue: 2, Harvest: 3, Evict: 4, Throttle: 5, Disk: 6, Spread: 7, Other: 8}
	var sum sim.Duration
	for _, c := range Causes {
		sum += r.Cause(c)
	}
	if sum != 36 {
		t.Fatalf("cause sum %d, want 36", sum)
	}
	if r.Attributed() != 28 {
		t.Fatalf("attributed %d, want 28", r.Attributed())
	}
}
