package simtrace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

func TestRecordRowIs40Bytes(t *testing.T) {
	if got := reflect.TypeOf(row{}).Size(); got != 40 {
		t.Fatalf("row is %d bytes, want 40", got)
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
				if got := l.rows[0].record(); got != r {
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

// FuzzRecordLog requires the log's blame table to equal the one a full
// sort picks, on records decoded from the input. The committed corpus
// (testdata/fuzz/FuzzRecordLog) holds the range limits: IDs 0 and
// 2^31-1, durations 0 and 2^32-1 ns, and tied latencies.
func FuzzRecordLog(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 17, 64} {
		records := make([]QueryRecord, n)
		for i := range records {
			records[i] = QueryRecord{ID: rng.Intn(1 << 20), Latency: sim.Duration(rng.Intn(4))}
		}
		f.Add(encodeRecords(records))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		records := decodeRecords(data)
		var want *CellForensics
		if len(records) > 0 {
			want = blameBySort(records)
		}
		if got := logOf(records).BlameTable(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d records: selected %+v, sorting picks %+v", len(records), got, want)
		}
	})
}

// BenchmarkRecordLog appends 100k records to a log and builds the
// blame table: one cell's worth of forensics at test scale, four
// times over.
func BenchmarkRecordLog(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(4))
	records := make([]QueryRecord, n)
	for i := range records {
		lat := sim.Duration(5e6 + rng.Intn(2e6))
		records[i] = QueryRecord{ID: i, Latency: lat, Service: lat / 2, Queue: lat / 4, Other: lat - lat/2 - lat/4}
	}
	b.ReportAllocs()
	for b.Loop() {
		l := NewRecordLog(n)
		for _, r := range records {
			l.Append(r)
		}
		if l.BlameTable() == nil {
			b.Fatal("no table")
		}
	}
}
