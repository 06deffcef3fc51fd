package simtrace

import (
	"math"
	"math/bits"
	"sort"
	"unsafe"

	"perfiso/internal/sim"
)

// Kind classifies an event; the values map onto Chrome trace-event
// phases when the trace is exported.
type Kind uint8

const (
	// KindSlice is a complete execution slice on a core track ("X").
	KindSlice Kind = iota
	// KindBegin opens an async span keyed by ID ("b").
	KindBegin
	// KindEnd closes an async span keyed by ID ("e").
	KindEnd
	// KindInstant is a point event on a track ("i").
	KindInstant
)

// MaxArgs is the number of args an event carries inline.
const MaxArgs = 2

type argType uint8

const (
	argNone argType = iota
	argInt
	argString
	argBool
)

// Arg is one typed key/value argument attached to an event, built by
// Int, String or Bool. The value is stored as given and
// formatted only at export, so attaching an arg never allocates.
type Arg struct {
	key string
	str string
	num int64
	typ argType
}

// Int is an integer arg.
func Int(key string, v int) Arg { return Arg{key: key, num: int64(v), typ: argInt} }

// String is a string arg.
func String(key, v string) Arg { return Arg{key: key, str: v, typ: argString} }

// Bool is a boolean arg.
func Bool(key string, v bool) Arg {
	a := Arg{key: key, typ: argBool}
	if v {
		a.num = 1
	}
	return a
}

// Event is one sim-domain trace record. TS is the simulated clock;
// Seq is the tracer-local emission counter that breaks ties, making
// the total order (TS, Seq) a pure function of the seed.
type Event struct {
	Seq   uint64
	TS    sim.Time
	Dur   sim.Duration // slices only
	Kind  Kind
	Name  string
	Cat   string
	Track int // core id, or TrackControl for machine-wide events
	ID    int // async span id (query id); ignored unless Begin/End
	// Args holds the event's args in order; unused slots are zero.
	Args [MaxArgs]Arg
}

// TrackControl is the synthetic track carrying controller decisions
// and query milestones that are not tied to one core.
const TrackControl = -1

// record is one captured event as the tracer stores it. It holds no
// pointers, so the GC never scans the chunks: the name, category, arg
// keys and string arg values are indices into the tracer's string
// table, and a string arg keeps its value's index in num.
type record struct {
	ts    sim.Time
	dur   int64 // a slice's duration, or an async span's ID
	num   [MaxArgs]int64
	track int32
	name  uint16
	cat   uint16
	key   [MaxArgs]uint16
	kind  Kind
	typ   [MaxArgs]argType
}

// Events live in fixed-size chunks, so recording never copies earlier
// events and a capture allocates only what it keeps.
const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
)

// Tracer accumulates sim-domain events for one cell. The zero value
// is ready to use; a nil *Tracer discards everything, which is how
// instrumented packages keep the tracing-off path at one branch.
type Tracer struct {
	chunks [][]record
	n      int
	tracks []trackName
	strs   strtab
}

type trackName struct {
	id   int
	name string
}

// strtab is a capture's string table. Index 0 is the empty string;
// index i > 0 is raw[i-1], whose JSON-escaped form is esc[i-1].
type strtab struct {
	raw   []string
	esc   [][]byte
	index map[string]uint16
	hot   [1 << hotBits]hotString
}

// hotBits sizes the interner's pointer-keyed cache: 256 slots for the
// few dozen distinct strings a cell records.
const hotBits = 8

type hotString struct {
	s   string
	idx uint16
}

// intern returns the index of s, adding s on first use. The hit path
// hashes the address of s's bytes, not the bytes: a cache slot holding
// a string with the same data pointer and length holds the same bytes,
// since the slot keeps them alive. Call sites pass constants and
// long-lived process names, so nearly every lookup after the first few
// events hits. A miss goes to the content-keyed map, so indices follow
// first use whatever the addresses are.
func (st *strtab) intern(s string) uint16 {
	if len(s) == 0 {
		return 0
	}
	p := unsafe.StringData(s)
	h := &st.hot[uint64(uintptr(unsafe.Pointer(p)))*0x9e3779b97f4a7c15>>(64-hotBits)]
	if unsafe.StringData(h.s) == p && len(h.s) == len(s) {
		return h.idx
	}
	idx, ok := st.index[s]
	if !ok {
		if len(st.raw) == math.MaxUint16 {
			panic("simtrace: more than 65535 distinct non-empty strings in one capture")
		}
		if st.index == nil {
			st.index = map[string]uint16{}
		}
		st.raw = append(st.raw, s)
		st.esc = append(st.esc, appendStr(nil, s))
		idx = uint16(len(st.raw))
		st.index[s] = idx
	}
	*h = hotString{s: s, idx: idx}
	return idx
}

// str returns the string at index i.
func (st *strtab) str(i uint16) string {
	if i == 0 {
		return ""
	}
	return st.raw[i-1]
}

// json returns the string at index i as the body of a JSON string.
func (st *strtab) json(i uint16) []byte {
	if i == 0 {
		return nil
	}
	return st.esc[i-1]
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether events are being captured.
func (t *Tracer) Enabled() bool { return t != nil }

// NameTrack records a human-readable name for a track, exported as
// thread-name metadata. Later names for the same id win.
func (t *Tracer) NameTrack(id int, name string) {
	if t == nil {
		return
	}
	for i := range t.tracks {
		if t.tracks[i].id == id {
			t.tracks[i].name = name
			return
		}
	}
	t.tracks = append(t.tracks, trackName{id: id, name: name})
}

// push stores one event with the next sequence number. It panics on
// more than MaxArgs args.
func (t *Tracer) push(kind Kind, ts sim.Time, dur int64, track int, name, cat string, args []Arg) {
	if len(args) > MaxArgs {
		panic("simtrace: more than MaxArgs args on one event")
	}
	c := t.n >> chunkBits
	if c == len(t.chunks) {
		t.chunks = append(t.chunks, make([]record, chunkSize))
	}
	r := &t.chunks[c][t.n&(chunkSize-1)]
	*r = record{ts: ts, dur: dur, track: int32(track), name: t.strs.intern(name), cat: t.strs.intern(cat), kind: kind}
	for i := range args {
		a := &args[i]
		r.key[i], r.typ[i], r.num[i] = t.strs.intern(a.key), a.typ, a.num
		if a.typ == argString {
			r.num[i] = int64(t.strs.intern(a.str))
		}
	}
	t.n++
}

// at returns the record with sequence number i.
func (t *Tracer) at(i int) *record { return &t.chunks[i>>chunkBits][i&(chunkSize-1)] }

// event rebuilds the event with sequence number i from its record.
func (t *Tracer) event(i int) Event {
	r := t.at(i)
	e := Event{Seq: uint64(i), TS: r.ts, Kind: r.kind, Name: t.strs.str(r.name), Cat: t.strs.str(r.cat), Track: int(r.track)}
	switch r.kind {
	case KindSlice:
		e.Dur = sim.Duration(r.dur)
	case KindBegin, KindEnd:
		e.ID = int(r.dur)
	}
	for j, typ := range r.typ {
		a := Arg{key: t.strs.str(r.key[j]), num: r.num[j], typ: typ}
		if typ == argString {
			a.str, a.num = t.strs.str(uint16(r.num[j])), 0
		}
		e.Args[j] = a
	}
	return e
}

// Slice records a completed execution slice [start, start+dur) on a
// core track.
func (t *Tracer) Slice(start sim.Time, dur sim.Duration, track int, name, cat string, args ...Arg) {
	if t == nil {
		return
	}
	t.push(KindSlice, start, int64(dur), track, name, cat, args)
}

// Begin opens the async span id at ts.
func (t *Tracer) Begin(ts sim.Time, id int, name, cat string, args ...Arg) {
	if t == nil {
		return
	}
	t.push(KindBegin, ts, int64(id), TrackControl, name, cat, args)
}

// End closes the async span id at ts.
func (t *Tracer) End(ts sim.Time, id int, name, cat string, args ...Arg) {
	if t == nil {
		return
	}
	t.push(KindEnd, ts, int64(id), TrackControl, name, cat, args)
}

// Instant records a point event at ts on the given track.
func (t *Tracer) Instant(ts sim.Time, track int, name, cat string, args ...Arg) {
	if t == nil {
		return
	}
	t.push(KindInstant, ts, 0, track, name, cat, args)
}

// Len returns the number of captured events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// order returns the sequence numbers of the captured events sorted by
// (TS, Seq). Seq is the capture index, so a stable sort by TS alone
// gives that order. It is an LSD radix sort: one stable counting pass
// per byte of the key, least significant first. The key is the time
// with its sign bit flipped, which makes unsigned order the signed
// time order, less the least such key; only the bytes that span the
// capture's time range take a pass. Sequence numbers fit an int32: 2^31
// events would fill over 300 GB.
func (t *Tracer) order() []int32 {
	if t == nil || t.n == 0 {
		return nil
	}
	n := t.n
	keys, seqs := make([]uint64, 2*n), make([]int32, 2*n)
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range n {
		k := uint64(t.at(i).ts) ^ 1<<63
		keys[i], seqs[i] = k, int32(i)
		lo, hi = min(lo, k), max(hi, k)
	}
	src, srcSeq := keys[:n], seqs[:n]
	dst, dstSeq := keys[n:], seqs[n:]
	for shift := 0; shift < bits.Len64(hi-lo); shift += 8 {
		var at [256]int
		for _, k := range src {
			at[byte((k-lo)>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for i, k := range src {
			d := byte((k - lo) >> shift)
			dst[at[d]], dstSeq[at[d]] = k, srcSeq[i]
			at[d]++
		}
		src, dst = dst, src
		srcSeq, dstSeq = dstSeq, srcSeq
	}
	return srcSeq
}

// Events returns the captured events sorted by (TS, Seq). The slice
// is a copy; the tracer keeps accumulating independently.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.n)
	for _, i := range t.order() {
		out = append(out, t.event(int(i)))
	}
	return out
}

// Tracks returns the named tracks sorted by id.
func (t *Tracer) Tracks() []struct {
	ID   int
	Name string
} {
	if t == nil {
		return nil
	}
	out := make([]struct {
		ID   int
		Name string
	}, 0, len(t.tracks))
	for _, tn := range t.tracks {
		out = append(out, struct {
			ID   int
			Name string
		}{tn.id, tn.name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
