package simtrace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

// recordFields lists a record's packed fields by name, with a setter.
var recordFields = []struct {
	name string
	set  func(r *QueryRecord, v int64)
}{
	{"ID", func(r *QueryRecord, v int64) { r.ID = int(v) }},
	{"Latency", func(r *QueryRecord, v int64) { r.Latency = sim.Duration(v) }},
	{"Service", func(r *QueryRecord, v int64) { r.Service = sim.Duration(v) }},
	{"Queue", func(r *QueryRecord, v int64) { r.Queue = sim.Duration(v) }},
	{"Harvest", func(r *QueryRecord, v int64) { r.Harvest = sim.Duration(v) }},
	{"Evict", func(r *QueryRecord, v int64) { r.Evict = sim.Duration(v) }},
	{"Throttle", func(r *QueryRecord, v int64) { r.Throttle = sim.Duration(v) }},
	{"Disk", func(r *QueryRecord, v int64) { r.Disk = sim.Duration(v) }},
	{"Spread", func(r *QueryRecord, v int64) { r.Spread = sim.Duration(v) }},
	{"Other", func(r *QueryRecord, v int64) { r.Other = sim.Duration(v) }},
}

// TestRecordLogIsPointerFree pins doc.go's record storage: neither the
// latency column nor a side-log chunk holds a pointer, so the GC never
// scans them.
func TestRecordLogIsPointerFree(t *testing.T) {
	log := reflect.TypeOf(RecordLog{})
	for _, c := range []struct {
		field string
		depth int // slice levels above the stored values
	}{{"lat", 1}, {"side", 2}} {
		f, ok := log.FieldByName(c.field)
		if !ok {
			t.Fatalf("RecordLog has no field %s", c.field)
		}
		typ := f.Type
		for range c.depth {
			typ = typ.Elem()
		}
		if path := pointerPath(typ, c.field); path != "" {
			t.Errorf("RecordLog.%s holds a pointer at %s", c.field, path)
		}
	}
}

// fieldMax is the largest value a log holds in the named field: IDs up
// to 2^31-1, latencies up to 2^32-2 ns (2^32-1 marks an ID with no
// record) and causes up to 2^32-1 ns.
func fieldMax(name string) int64 {
	switch name {
	case "ID":
		return math.MaxInt32
	case "Latency":
		return noRecord - 1
	}
	return math.MaxUint32
}

// TestRecordLogRoundTripsLimits: a record at either end of every
// field's range comes back out of the log unchanged, and out of its
// blame table. A log that holds ID 2^31-1 takes 8 GiB, so that ID is
// checked through its side-log entry alone.
func TestRecordLogRoundTripsLimits(t *testing.T) {
	for _, f := range recordFields {
		for _, v := range []int64{0, 1, fieldMax(f.name)} {
			for _, dropped := range []bool{false, true} {
				r := QueryRecord{Dropped: dropped}
				f.set(&r, v)
				if r.ID == math.MaxInt32 {
					r.Queue = 1
					var l RecordLog
					l.addSide(&r)
					l.eachSide(func(e []byte) {
						got := QueryRecord{ID: int(binary.LittleEndian.Uint32(e) >> 1)}
						unpackSide(&got, e)
						if got != r {
							t.Errorf("ID %d dropped=%v: side-log entry reads back %+v", r.ID, dropped, got)
						}
					})
					continue
				}
				l := NewRecordLog(r.ID + 1)
				l.Append(r)
				if got := l.records(r.ID)[0]; got != r {
					t.Errorf("%s=%d dropped=%v: read back %+v", f.name, v, dropped, got)
				}
				if cf := l.BlameTable(); cf.Queries != 1 || cf.Rows[3].Record != r {
					t.Errorf("%s=%d dropped=%v: blame table %+v", f.name, v, dropped, cf)
				}
			}
		}
	}
}

// panicOf returns what f panics with, or "<nil>".
func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return ""
}

// TestRecordLogAppendPanicsOutOfRange: Append refuses a duration the
// log cannot hold, naming the field, and an ID outside the log's IDs
// or already appended, naming the ID; NewRecordLog refuses a log of
// more than 2^31 IDs.
func TestRecordLogAppendPanicsOutOfRange(t *testing.T) {
	for _, f := range recordFields[1:] {
		for _, v := range []int64{-1, fieldMax(f.name) + 1, math.MinInt64, math.MaxInt64} {
			r := QueryRecord{}
			f.set(&r, v)
			msg := panicOf(func() { NewRecordLog(1).Append(r) })
			if want := "record " + f.name + " "; !strings.Contains(msg, want) {
				t.Errorf("%s=%d: panic %q, want one naming %q", f.name, v, msg, f.name)
			}
		}
	}
	for _, c := range []struct{ n, id int }{
		{1, -1}, {1, 1}, {0, 0}, {3, 3}, {2, math.MinInt64}, {2, math.MaxInt64},
		{2, math.MaxInt32}, {2, math.MaxInt32 + 1},
	} {
		msg := panicOf(func() { NewRecordLog(c.n).Append(QueryRecord{ID: c.id}) })
		if want := fmt.Sprintf("record ID %d ", c.id); !strings.Contains(msg, want) {
			t.Errorf("ID %d in a log of %d: panic %q, want one naming the ID", c.id, c.n, msg)
		}
	}
	for _, id := range []int{0, 2, 3} {
		l := NewRecordLog(4)
		l.Append(QueryRecord{ID: id, Latency: 5, Service: 5})
		msg := panicOf(func() { l.Append(QueryRecord{ID: id, Latency: 1, Dropped: true}) })
		if want := fmt.Sprintf("record ID %d ", id); !strings.Contains(msg, want) {
			t.Errorf("ID %d appended twice: panic %q, want one naming the ID", id, msg)
		}
		if got := l.records(id)[0]; got != (QueryRecord{ID: id, Latency: 5, Service: 5}) {
			t.Errorf("ID %d appended twice: the log now holds %+v", id, got)
		}
	}
	for _, n := range []int{-1, math.MaxInt32 + 2, math.MaxInt64, math.MinInt64} {
		if msg := panicOf(func() { NewRecordLog(n) }); !strings.Contains(msg, fmt.Sprintf("log of %d IDs", n)) {
			t.Errorf("a log of %d IDs: panic %q, want one naming the count", n, msg)
		}
	}
}

// recordBytes is the size of one record in FuzzRecordLog's input: a
// flags byte (bit 0 is the dropped flag), then the ID and the nine
// durations, latency first and the causes in Causes order, each a
// little-endian uint32.
const recordBytes = 1 + 4 + 9*4

// decodeRecords reads whole records from data. A record repeating an
// earlier ID, once the ID's top bit is dropped, is skipped, since a log
// takes each ID once. The IDs left map in order onto [0, n), as a
// cell's query IDs run, and a latency above the log's 2^32-2 ns is
// lowered to it.
func decodeRecords(data []byte) []QueryRecord {
	var out []QueryRecord
	seen := map[int]bool{}
	for ; len(data) >= recordBytes; data = data[recordBytes:] {
		u := func(i int) int64 { return int64(binary.LittleEndian.Uint32(data[1+4*i:])) }
		r := QueryRecord{Dropped: data[0]&1 != 0}
		for i, f := range recordFields {
			f.set(&r, u(i))
		}
		r.ID &= math.MaxInt32
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		r.Latency = min(r.Latency, noRecord-1)
		out = append(out, r)
	}
	ids := make([]int, 0, len(out))
	for _, r := range out {
		ids = append(ids, r.ID)
	}
	slices.Sort(ids)
	for i := range out {
		out[i].ID, _ = slices.BinarySearch(ids, out[i].ID)
	}
	return out
}

// encodeRecords is decodeRecords' inverse, for seeding the corpus.
func encodeRecords(records []QueryRecord) []byte {
	var out []byte
	for _, r := range records {
		flags := byte(0)
		if r.Dropped {
			flags = 1
		}
		out = append(out, flags)
		out = binary.LittleEndian.AppendUint32(out, uint32(r.ID))
		out = binary.LittleEndian.AppendUint32(out, uint32(r.Latency))
		for _, c := range Causes {
			out = binary.LittleEndian.AppendUint32(out, uint32(r.Cause(c)))
		}
	}
	return out
}

// FuzzRecordLog requires every record decoded from the input to come
// back out of the log unchanged, the side log to hold exactly the
// records that are dropped or not all service, once each and in append
// order, and the log's blame table to equal the one a full sort picks.
// The committed corpus (testdata/fuzz/FuzzRecordLog) holds the range
// limits: IDs 0 and 2^31-1, which decode to the least and the
// greatest of the log's IDs, durations 0 and 2^32-1 ns, and tied
// latencies; the seeds below hold each way a record can use the side
// log or not.
func FuzzRecordLog(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 17, 64} {
		records := make([]QueryRecord, n)
		for i := range records {
			records[i] = QueryRecord{ID: rng.Intn(1 << 20), Latency: sim.Duration(rng.Intn(4))}
		}
		f.Add(encodeRecords(records))
	}
	// All pure service.
	var pure []QueryRecord
	for i := range 40 {
		lat := sim.Duration(rng.Intn(1e7))
		pure = append(pure, QueryRecord{ID: i, Dropped: i%3 == 0, Latency: lat, Service: lat})
	}
	f.Add(encodeRecords(pure))
	// Each cause alone nonzero, the whole latency.
	var alone []QueryRecord
	for i, c := range recordFields[2:] {
		r := QueryRecord{ID: i, Dropped: i%2 == 1, Latency: sim.Duration(1e6 * (i + 1))}
		c.set(&r, int64(r.Latency))
		alone = append(alone, r)
	}
	f.Add(encodeRecords(alone))
	// Service is not the latency, and every other cause is zero.
	f.Add(encodeRecords([]QueryRecord{
		{ID: 0, Latency: 5e6}, {ID: 1, Latency: 5e6, Service: 4e6},
		{ID: 2, Latency: 3e6, Service: 5e6}, {ID: 3, Service: 1}, {ID: 4},
	}))
	// Other alone nonzero, with and without the latency all service.
	f.Add(encodeRecords([]QueryRecord{
		{ID: 0, Latency: 2e6, Other: 2e6}, {ID: 1, Latency: 2e6, Service: 2e6, Other: 1},
		{ID: 2, Latency: 2e6, Service: 2e6},
	}))
	// More side-log entries than one chunk holds, most with every cause
	// nonzero.
	var chunked []QueryRecord
	for i := range sideChunk*3/2/sideEntryMax + 1 {
		lat := sim.Duration(8 + rng.Intn(1e7))
		r := QueryRecord{ID: i, Latency: lat, Service: lat}
		if i%5 != 0 {
			for _, c := range recordFields[2:] {
				c.set(&r, int64(lat/8))
			}
			r.Other = lat - 7*(lat/8)
		}
		chunked = append(chunked, r)
	}
	f.Add(encodeRecords(chunked))
	// A mix at the range limits, pure and not.
	var limits []QueryRecord
	for i := range 24 {
		lat := sim.Duration(math.MaxUint32 * (i % 2))
		r := QueryRecord{ID: math.MaxInt32 - i, Dropped: i%4 < 2, Latency: lat, Service: lat}
		if i%3 != 0 {
			for _, c := range recordFields[2:] {
				c.set(&r, math.MaxUint32*rng.Int63n(2))
			}
		}
		limits = append(limits, r)
	}
	f.Add(encodeRecords(limits))
	f.Fuzz(func(t *testing.T, data []byte) {
		records := decodeRecords(data)
		l := logOf(records)
		got, side := logged(l)
		var wantSide []int
		for i, r := range records {
			if got[r.ID] != r {
				t.Fatalf("record %d: appended %+v, read back %+v", i, r, got[r.ID])
			}
			if r != (QueryRecord{ID: r.ID, Latency: r.Latency, Service: r.Latency}) {
				wantSide = append(wantSide, r.ID)
			}
		}
		if len(got) != len(records) {
			t.Fatalf("%d records appended, %d read back", len(records), len(got))
		}
		if !slices.Equal(side, wantSide) {
			t.Fatalf("side log holds IDs %v, want %v", side, wantSide)
		}
		var want *CellForensics
		if len(records) > 0 {
			want = blameBySort(records)
		}
		if got := l.BlameTable(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d records: selected %+v, sorting picks %+v", len(records), got, want)
		}
	})
}

// logged reads every record in l back, by ID, and lists the IDs of the
// side-log entries in append order. Unlike RecordLog.records, which
// BlameTable reads its four records with, it reads the side log into
// a map, so a large fuzz input costs linear time.
func logged(l *RecordLog) (map[int]QueryRecord, []int) {
	got := map[int]QueryRecord{}
	for i, v := range l.lat {
		if v != noRecord {
			got[i] = QueryRecord{ID: i, Latency: sim.Duration(v), Service: sim.Duration(v)}
		}
	}
	var side []int
	l.eachSide(func(e []byte) {
		id := int(binary.LittleEndian.Uint32(e) >> 1)
		r := got[id]
		unpackSide(&r, e)
		got[id] = r
		side = append(side, id)
	})
	return got, side
}

// recordShapes returns n records in two shapes. "cell" is shaped like
// a measured cell: 84% of the records are all service, the rest wait
// on the disk. In "side-table" every record has Queue and Other set, so
// every record uses the side log.
func recordShapes(n int) (cell, side []QueryRecord) {
	rng := rand.New(rand.NewSource(4))
	side = make([]QueryRecord, n)
	for i := range side {
		lat := sim.Duration(5e6 + rng.Intn(2e6))
		side[i] = QueryRecord{ID: i, Latency: lat, Service: lat / 2, Queue: lat / 4, Other: lat - lat/2 - lat/4}
	}
	rng = rand.New(rand.NewSource(5))
	cell = make([]QueryRecord, n)
	for i := range cell {
		lat := sim.Duration(5e6 + rng.Intn(2e6))
		cell[i] = QueryRecord{ID: i, Latency: lat, Service: lat}
		if rng.Intn(100) < 16 {
			cell[i].Service, cell[i].Disk = lat-lat/3, lat/3
		}
	}
	return cell, side
}

// TestRecordLogBytesPerRecord bounds what a log allocates per record:
// a 4-byte latency, and a side-log entry of 5 bytes and 4 per nonzero
// cause for a record that is dropped or not all service.
func TestRecordLogBytesPerRecord(t *testing.T) {
	cell, side := recordShapes(100_000)
	for _, c := range []struct {
		name    string
		records []QueryRecord
		limit   float64
	}{{"cell", cell, 7}, {"side-table", side, 22}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l := logOf(c.records)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(l)
		perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(c.records))
		t.Logf("%s: %.1f B per record", c.name, perRecord)
		if perRecord > c.limit {
			t.Errorf("%s: a log allocates %.1f B per record, want at most %v", c.name, perRecord, c.limit)
		}
	}
}

// BenchmarkRecordLog appends 100k records to a log and builds the
// blame table: one cell's worth of forensics at test scale, four
// times over, in each of recordShapes' shapes. B/op over 100k is the
// bytes a record costs.
func BenchmarkRecordLog(b *testing.B) {
	const n = 100_000
	cell, side := recordShapes(n)
	for _, c := range []struct {
		name    string
		records []QueryRecord
	}{{"cell", cell}, {"side-table", side}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				l := NewRecordLog(n)
				for _, r := range c.records {
					l.Append(r)
				}
				if l.BlameTable() == nil {
					b.Fatal("no table")
				}
			}
		})
	}
}
