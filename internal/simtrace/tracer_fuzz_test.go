package simtrace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

// The strings FuzzTracer's calls choose from. Names are never empty,
// since the export of an unnamed event is invalid, and some need
// escaping; a string value is not valid UTF-8. Two names test the
// caches keyed on string addresses: "query copy" records "query" from
// a copy of its bytes, the same string at another address, and
// "index" records the first 5 bytes of "indexserve", another string
// at the same address.
var (
	fuzzNames   = [8]string{"query", "bully", "indexserve", "buffer-grow", "sl\\ice \"q\"\n", "☃ core", "index", "query copy"}
	fuzzCats    = [4]string{"", "cpu", "query", "controller"}
	fuzzKeys    = [8][MaxArgs]string{{"tid", ""}, {"workers", ""}, {"dropped", "latency_us"}, {"reason", "urgent"}, {"a", "a"}, {"", ""}, {"job", "task"}, {"query", "allocated"}}
	fuzzStrings = [5]string{"", "low", "job over memory limit", "batch \"q\"\n☃", "x\xff\xfe y"}
)

// fuzzOpSize is the bytes one call takes in FuzzTracer's input: two
// control bytes, then the time, a value, a track and two arg values,
// little-endian.
const fuzzOpSize = 2 + 8 + 8 + 4 + 8 + 8

// fuzzOp is one recording call of FuzzTracer.
type fuzzOp struct {
	// call is 0 for Slice, 1 for a Begin and its End, 2 for Instant and
	// 3 for a Begin left open.
	call, nargs uint8
	typ         [MaxArgs]argType
	name, cat   int
	keys        int
	ts          int64
	val         int64 // a slice's duration, or the async span's ID
	track       int32 // a pair's End is this many ns after its Begin
	arg         [MaxArgs]int64
}

func (op fuzzOp) encode() []byte {
	b := make([]byte, fuzzOpSize)
	b[0] = op.call | op.nargs<<2 | byte(op.typ[0]-argInt)<<4 | byte(op.typ[1]-argInt)<<6
	b[1] = byte(op.name) | byte(op.cat)<<3 | byte(op.keys)<<5
	binary.LittleEndian.PutUint64(b[2:], uint64(op.ts))
	binary.LittleEndian.PutUint64(b[10:], uint64(op.val))
	binary.LittleEndian.PutUint32(b[18:], uint32(op.track))
	binary.LittleEndian.PutUint64(b[22:], uint64(op.arg[0]))
	binary.LittleEndian.PutUint64(b[30:], uint64(op.arg[1]))
	return b
}

// decodeFuzzOps reads calls until data runs out, the last padded with
// zeros.
func decodeFuzzOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for len(data) > 0 {
		var b [fuzzOpSize]byte
		data = data[copy(b[:], data):]
		op := fuzzOp{
			call:  b[0] & 3,
			nargs: min(b[0]>>2&3, MaxArgs),
			name:  int(b[1] & 7),
			cat:   int(b[1] >> 3 & 3),
			keys:  int(b[1] >> 5),
			ts:    int64(binary.LittleEndian.Uint64(b[2:])),
			val:   int64(binary.LittleEndian.Uint64(b[10:])),
			track: int32(binary.LittleEndian.Uint32(b[18:])),
		}
		for i := range op.typ {
			op.typ[i] = argInt + argType(b[0]>>(4+2*i)&3)%3
			op.arg[i] = int64(binary.LittleEndian.Uint64(b[22+8*i:]))
		}
		ops = append(ops, op)
	}
	return ops
}

// record makes op's calls on tr and returns the events they record.
func (op fuzzOp) record(tr *Tracer, seq int) []Event {
	name, cat := fuzzNames[op.name], fuzzCats[op.cat]
	switch name {
	case "query copy":
		name = strings.Clone("query")
	case "index":
		name = fuzzNames[2][:5]
	}
	args := make([]Arg, op.nargs)
	for i := range args {
		key := fuzzKeys[op.keys][i]
		switch v := op.arg[i]; op.typ[i] {
		case argInt:
			args[i] = Int(key, int(v))
		case argString:
			args[i] = String(key, fuzzStrings[uint64(v)%uint64(len(fuzzStrings))])
		default:
			args[i] = Bool(key, v&1 != 0)
		}
	}
	e := Event{Seq: uint64(seq), TS: sim.Time(op.ts), Name: name, Cat: cat}
	copy(e.Args[:], args)
	switch op.call {
	case 0:
		tr.Slice(e.TS, sim.Duration(op.val), int(op.track), name, cat, args...)
		e.Kind, e.Dur, e.Track = KindSlice, sim.Duration(op.val), int(op.track)
		return []Event{e}
	case 2:
		tr.Instant(e.TS, int(op.track), name, cat, args...)
		e.Kind, e.Track = KindInstant, int(op.track)
		return []Event{e}
	}
	tr.Begin(e.TS, int(op.val), name, cat, args...)
	e.Kind, e.Track, e.ID = KindBegin, TrackControl, int(op.val)
	if op.call == 3 {
		return []Event{e}
	}
	end := e
	end.Seq, end.Kind = e.Seq+1, KindEnd
	if end.TS += sim.Time(uint32(op.track)); end.TS < e.TS {
		end.TS = math.MaxInt64
	}
	tr.End(end.TS, end.ID, name, cat, args...)
	return []Event{e, end}
}

// FuzzTracer records the calls its input describes. Events must return
// every event as recorded, sorted stably by TS, and the Chrome export
// must validate. Times are taken whole, so a capture may take the radix
// order or, spanning more than 64 bits with its sequence numbers, the
// comparison sort; values beyond a record's narrow fields go to the
// wide table.
func FuzzTracer(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	for i, op := range []fuzzOp{
		{call: 0, nargs: 1, typ: [MaxArgs]argType{argInt, argInt}, name: 1, cat: 1, ts: 20, val: 5, track: 3, arg: [MaxArgs]int64{7}},
		{call: 1, nargs: 1, typ: [MaxArgs]argType{argInt, argInt}, keys: 1, cat: 2, ts: 10, val: 7, track: 20, arg: [MaxArgs]int64{4}},
		{call: 2, nargs: 2, typ: [MaxArgs]argType{argString, argBool}, name: 3, cat: 3, keys: 3, ts: 22, track: -1, arg: [MaxArgs]int64{1, 1}},
		{call: 3, nargs: 2, typ: [MaxArgs]argType{argBool, argInt}, keys: 2, cat: 2, ts: 10, val: 8, arg: [MaxArgs]int64{0, 1200}},
		{call: 0, name: 7, ts: 10, val: 3, track: 0},
		// The same strings under another category or kind.
		{call: 0, nargs: 1, typ: [MaxArgs]argType{argInt, argInt}, name: 1, ts: 21, val: 5, track: 3, arg: [MaxArgs]int64{7}},
		{call: 2, nargs: 1, typ: [MaxArgs]argType{argInt, argInt}, keys: 1, cat: 2, ts: 11, track: -1, arg: [MaxArgs]int64{4}},
		{call: 0, nargs: 1, typ: [MaxArgs]argType{argBool, argInt}, name: 1, cat: 1, ts: 23, val: 5, track: 3, arg: [MaxArgs]int64{1}},
		{call: 2, name: 6, ts: 24, track: 2},
		{call: 2, name: 2, ts: 24, track: 2},
	} {
		seed = append(seed, op.encode()...)
		if i == 1 {
			f.Add(seed)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New()
		var want []Event
		for _, op := range decodeFuzzOps(data) {
			want = append(want, op.record(tr, len(want))...)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].TS < want[j].TS })
		if got := tr.Events(); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("events\n%+v\nwant\n%+v", got, want)
		}
		var buf bytes.Buffer
		if err := WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if err := ValidateChrome(buf.Bytes()); err != nil {
			t.Fatalf("export fails validation: %v\n%s", err, buf.Bytes())
		}
	})
}
