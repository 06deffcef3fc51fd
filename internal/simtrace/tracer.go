package simtrace

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
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

// record is one captured event as the tracer stores it: 24 bytes that
// hold no pointers, so the GC never scans the chunks. What the events
// of one call site share, the kind, name, category, arg keys and arg
// types, is an entry of the tracer's shape table, and the record keeps
// that entry's index and the values that vary. A string arg's value is
// its index in the string table. When a value does not fit its field,
// the record sets wideBit in shape and all of its values go whole to
// the wide table, at the index dur then holds.
type record struct {
	ts    sim.Time
	dur   int32 // a slice's duration, or an async span's ID
	num   [MaxArgs]int32
	track int16
	shape uint16
}

// wideBit marks a record whose values are in the wide table; the
// shape's index takes the other 15 bits.
const wideBit = 1 << 15

// values are the fields of an event that vary from one event of a
// shape to the next, at full width.
type values struct {
	dur   int64
	num   [MaxArgs]int64
	track int
}

// shape is what the events of one call site share: the kind, the
// string indices of the name, category and arg keys, and the arg types
// (argNone past the last arg).
type shape struct {
	kind      Kind
	typ       [MaxArgs]argType
	name, cat uint16
	key       [MaxArgs]uint16
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
	wide   []values
	tracks []trackName
	strs   strtab
	shapes shapetab
}

type trackName struct {
	id   int
	name string
}

// shapetab is a capture's shape table, in order of first use.
type shapetab struct {
	list  []shape
	index map[shape]uint16
	hot   [1 << hotBits]hotShape
}

// hotShape caches the index of one call site's shape under the
// addresses of its strings.
type hotShape struct {
	name, cat string
	key       [MaxArgs]string
	kind      Kind
	typ       [MaxArgs]argType
	live      bool
	idx       uint16
}

// strtab is a capture's string table. Index 0 is the empty string;
// index i > 0 is raw[i-1], whose JSON-escaped form is esc[i-1].
type strtab struct {
	raw   []string
	esc   [][]byte
	index map[string]uint16
}

// hotBits sizes the shape cache: 256 slots for the dozen or so call
// sites a cell records from.
const hotBits = 8

// addr is the address of s's bytes.
func addr(s string) uint64 { return uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))) }

// same reports whether a and b are the same bytes in memory. Strings
// that are not may still be equal; the shape cache then misses and
// falls back to content.
func same(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) && len(a) == len(b) }

// shapeOf returns the index of the shape of an event, adding the shape
// on first use. The hit path is one probe of a cache keyed on the
// addresses of the event's strings, which reads no string bytes: a
// slot whose strings have the same data pointers and lengths holds the
// same strings, since the slot keeps them alive. Call sites pass
// constants and long-lived process names, so nearly every event after
// the first few hits. A miss interns the strings and looks the shape
// up by content, so indices follow first use whatever the addresses
// are.
func (t *Tracer) shapeOf(kind Kind, name, cat string, args []Arg) uint16 {
	var key [MaxArgs]string
	var typ [MaxArgs]argType
	for i := range args {
		key[i], typ[i] = args[i].key, args[i].typ
	}
	x := addr(name) ^ addr(cat)<<1 ^ addr(key[0])<<2 ^ addr(key[1])<<3 ^ uint64(kind)
	h := &t.shapes.hot[x*0x9e3779b97f4a7c15>>(64-hotBits)]
	if h.live && h.kind == kind && h.typ == typ && same(h.name, name) && same(h.cat, cat) &&
		same(h.key[0], key[0]) && same(h.key[1], key[1]) {
		return h.idx
	}
	s := shape{kind: kind, typ: typ, name: t.strs.intern(name), cat: t.strs.intern(cat)}
	for i := range args {
		s.key[i] = t.strs.intern(key[i])
	}
	st := &t.shapes
	idx, ok := st.index[s]
	if !ok {
		if len(st.list) == wideBit {
			panic("simtrace: more than 32768 distinct event shapes in one capture")
		}
		if st.index == nil {
			st.index = map[shape]uint16{}
		}
		idx = uint16(len(st.list))
		st.list = append(st.list, s)
		st.index[s] = idx
	}
	*h = hotShape{name: name, cat: cat, key: key, kind: kind, typ: typ, live: true, idx: idx}
	return idx
}

// intern returns the index of s, adding s on first use. Only a shape
// cache miss and a string arg's value look a string up.
func (st *strtab) intern(s string) uint16 {
	if len(s) == 0 {
		return 0
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
	v := values{dur: dur, track: track}
	for i := range args {
		v.num[i] = args[i].num
		if args[i].typ == argString {
			v.num[i] = int64(t.strs.intern(args[i].str))
		}
	}
	c := t.n >> chunkBits
	if c == len(t.chunks) {
		t.chunks = append(t.chunks, make([]record, chunkSize))
	}
	r := &t.chunks[c][t.n&(chunkSize-1)]
	*r = record{ts: ts, dur: int32(v.dur), track: int16(v.track), shape: t.shapeOf(kind, name, cat, args)}
	wide := int64(r.dur) != v.dur || int(r.track) != v.track
	for i, x := range v.num {
		r.num[i] = int32(x)
		wide = wide || int64(r.num[i]) != x
	}
	if wide {
		// A wide index fits the int32: 2^31 events would take 48 GiB.
		r.dur, r.num, r.track, r.shape = int32(len(t.wide)), [MaxArgs]int32{}, 0, r.shape|wideBit
		t.wide = append(t.wide, v)
	}
	t.n++
}

// at returns the record with sequence number i.
func (t *Tracer) at(i int) *record { return &t.chunks[i>>chunkBits][i&(chunkSize-1)] }

// unpack returns r's shape and values.
func (t *Tracer) unpack(r *record) (*shape, values) {
	s := &t.shapes.list[r.shape&^wideBit]
	if r.shape&wideBit != 0 {
		return s, t.wide[r.dur]
	}
	v := values{dur: int64(r.dur), track: int(r.track)}
	for i, x := range r.num {
		v.num[i] = int64(x)
	}
	return s, v
}

// event rebuilds the event with sequence number i from its record.
func (t *Tracer) event(i int) Event {
	r := t.at(i)
	s, v := t.unpack(r)
	e := Event{Seq: uint64(i), TS: r.ts, Kind: s.kind, Name: t.strs.str(s.name), Cat: t.strs.str(s.cat), Track: v.track}
	switch s.kind {
	case KindSlice:
		e.Dur = sim.Duration(v.dur)
	case KindBegin, KindEnd:
		e.ID = int(v.dur)
	}
	for j, typ := range s.typ {
		a := Arg{key: t.strs.str(s.key[j]), num: v.num[j], typ: typ}
		if typ == argString {
			a.str, a.num = t.strs.str(uint16(v.num[j])), 0
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

// order returns the capture's sequence numbers sorted by (TS, Seq),
// each in the low bits of a key: key&mask is the sequence number. Above
// it, the key holds the time less the capture's earliest. Every key is
// distinct, so sorting the keys in place gives exactly the (TS, Seq)
// order. When the time range and the sequence numbers together do not
// fit 64 bits, the keys are the bare sequence numbers, sorted by
// comparing their records' times.
func (t *Tracer) order() (keys []uint64, mask uint64) {
	if t == nil || t.n == 0 {
		return nil, 0
	}
	// With the sign bit flipped, unsigned order is signed time order.
	keys = make([]uint64, t.n)
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range keys {
		k := uint64(t.at(i).ts) ^ 1<<63
		keys[i] = k
		lo, hi = min(lo, k), max(hi, k)
	}
	seqBits := bits.Len(uint(t.n - 1))
	top := bits.Len64(hi-lo) + seqBits
	if top > 64 {
		for i := range keys {
			keys[i] = uint64(i)
		}
		slices.SortFunc(keys, func(a, b uint64) int {
			if c := cmp.Compare(t.at(int(a)).ts, t.at(int(b)).ts); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return keys, math.MaxUint64
	}
	for i, k := range keys {
		keys[i] = (k-lo)<<seqBits | uint64(i)
	}
	radixSort(keys, top)
	return keys, 1<<seqBits - 1
}

// radixSort sorts keys in place whose bits from hi up are all equal.
// It is an MSD radix sort: one pass counts the keys per value of the
// digit below hi, one swaps each key into its digit's bucket, and each
// bucket is then sorted by the bits below the digit. The digit takes up
// to 8 bits, and 2 fewer than the bit length of the number of keys, so
// a few hundred keys split into buckets of a few keys each rather than
// into 256 mostly empty ones. Buckets of up to 32 keys take an
// insertion sort.
func radixSort(keys []uint64, hi int) {
	if len(keys) <= 32 {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		return
	}
	shift := hi - min(bits.Len(uint(len(keys)))-2, 8, hi)
	mask := uint64(1)<<(hi-shift) - 1
	var next, end [256]int32
	for _, k := range keys {
		end[k>>shift&mask]++
	}
	sum := int32(0)
	for d := range mask + 1 {
		next[d], sum = sum, sum+end[d]
		end[d] = sum
	}
	for d := range mask + 1 {
		for next[d] < end[d] {
			k := keys[next[d]]
			for b := k >> shift & mask; b != d; b = k >> shift & mask {
				keys[next[b]], k = k, keys[next[b]]
				next[b]++
			}
			keys[next[d]] = k
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	start := int32(0)
	for _, e := range end[:mask+1] {
		if e-start > 1 {
			radixSort(keys[start:e], shift)
		}
		start = e
	}
}

// Events returns the captured events sorted by (TS, Seq). The slice
// is a copy; the tracer keeps accumulating independently.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.n)
	keys, mask := t.order()
	for _, k := range keys {
		out = append(out, t.event(int(k&mask)))
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
