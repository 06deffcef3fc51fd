package simtrace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// TestRecordRowIs12BytesAndPointerFree pins doc.go's record storage:
// a row is 12 bytes, and neither a row nor a side-table entry holds a
// pointer, so the GC never scans a log's rows or chunks.
func TestRecordRowIs12BytesAndPointerFree(t *testing.T) {
	if got := reflect.TypeOf(row{}).Size(); got != 12 {
		t.Errorf("row is %d bytes, want 12", got)
	}
	for _, v := range []any{row{}, causes{}} {
		typ := reflect.TypeOf(v)
		if path := pointerPath(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
}

// TestRecordLogRoundTripsLimits: a record at either end of every
// field's range comes back out of the log unchanged.
func TestRecordLogRoundTripsLimits(t *testing.T) {
	for _, f := range recordFields {
		hi := int64(math.MaxUint32)
		if f.name == "ID" {
			hi = math.MaxInt32
		}
		for _, v := range []int64{0, 1, hi} {
			for _, dropped := range []bool{false, true} {
				r := QueryRecord{Dropped: dropped}
				f.set(&r, v)
				l := NewRecordLog(1)
				l.Append(r)
				if got := l.record(l.rows[0]); got != r {
					t.Errorf("%s=%d dropped=%v: unpacked %+v", f.name, v, dropped, got)
				}
			}
		}
	}
}

// TestRecordLogAppendPanicsOutOfRange: Append refuses a value its row
// cannot hold, naming the field.
func TestRecordLogAppendPanicsOutOfRange(t *testing.T) {
	for _, f := range recordFields {
		over := int64(math.MaxUint32) + 1
		if f.name == "ID" {
			over = math.MaxInt32 + 1
		}
		for _, v := range []int64{-1, over, math.MinInt64, math.MaxInt64} {
			r := QueryRecord{}
			f.set(&r, v)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				NewRecordLog(1).Append(r)
				return ""
			}()
			if want := "record " + f.name + " "; !strings.Contains(msg, want) {
				t.Errorf("%s=%d: panic %q, want one naming %q", f.name, v, msg, f.name)
			}
		}
	}
}

// recordBytes is the size of one record in FuzzRecordLog's input: a
// flags byte (bit 0 is the dropped flag), then the ID and the nine
// durations, latency first and the causes in Causes order, each a
// little-endian uint32.
const recordBytes = 1 + 4 + 9*4

// decodeRecords reads whole records from data. The ID is clamped into
// [0, 2^31-1] by dropping its top bit, and a record repeating an
// earlier ID is skipped, since the selection order needs unique IDs.
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
		out = append(out, r)
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
// back out of the log unchanged, the side table to hold exactly the
// records that are not all service, and the log's blame table to equal
// the one a full sort picks. The committed corpus
// (testdata/fuzz/FuzzRecordLog) holds the range limits: IDs 0 and
// 2^31-1, durations 0 and 2^32-1 ns, and tied latencies; the seeds
// below hold each way a record can use the side table or not.
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
	// More records in the side table than one chunk holds.
	var chunked []QueryRecord
	for i := range sideChunk + sideChunk/2 + 1 {
		lat := sim.Duration(rng.Intn(1e7))
		r := QueryRecord{ID: i, Latency: lat, Service: lat}
		if i%5 != 0 {
			r.Service, r.Disk = lat-lat/3, lat/3
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
		side := 0
		for i, r := range records {
			if got := l.record(l.rows[i]); got != r {
				t.Fatalf("record %d: appended %+v, unpacked %+v", i, r, got)
			}
			if r != (QueryRecord{ID: r.ID, Dropped: r.Dropped, Latency: r.Latency, Service: r.Latency}) {
				side++
			}
		}
		if l.sideLen != side {
			t.Fatalf("%d records in the side table, want %d", l.sideLen, side)
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

// recordShapes returns n records in two shapes. "cell" is shaped like
// a measured cell: 84% of the records are all service, the rest wait
// on the disk. In "side-table" every record has Queue and Other set, so
// every row uses the side table.
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
// a 12-byte row, and a 32-byte side-table entry for a record that is
// not all service.
func TestRecordLogBytesPerRecord(t *testing.T) {
	cell, side := recordShapes(100_000)
	for _, c := range []struct {
		name    string
		records []QueryRecord
		limit   float64
	}{{"cell", cell, 18}, {"side-table", side, 45}} {
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
