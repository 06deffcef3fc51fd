package simtrace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"perfiso/internal/sim"
)

// Causes lists the attribution categories in their fixed render
// order. "other" is the unattributed residual; everything before it
// is a named cause.
var Causes = []string{
	"service", "queue", "harvest", "evict", "throttle", "disk", "spread", "other",
}

// QueryRecord is the critical-path latency decomposition of one
// query. All fields are exact sim durations (int64 nanoseconds), so
// records round-trip through JSON byte-identically — the property
// that lets forensics ride shard merges for free.
type QueryRecord struct {
	ID      int
	Dropped bool
	Latency sim.Duration

	Service  sim.Duration // critical worker + ranker actually running
	Queue    sim.Duration // runnable behind primary/OS threads
	Harvest  sim.Duration // runnable behind harvested batch threads
	Evict    sim.Duration // runnable while a delayed eviction was pending
	Throttle sim.Duration // parked by freeze or empty affinity
	Disk     sim.Duration // gated on an SSD cache-miss read
	Spread   sim.Duration // deliberate worker wake-up stagger
	Other    sim.Duration // unattributed residual
}

// Cause returns the duration attributed to the named cause.
func (r QueryRecord) Cause(name string) sim.Duration {
	switch name {
	case "service":
		return r.Service
	case "queue":
		return r.Queue
	case "harvest":
		return r.Harvest
	case "evict":
		return r.Evict
	case "throttle":
		return r.Throttle
	case "disk":
		return r.Disk
	case "spread":
		return r.Spread
	case "other":
		return r.Other
	}
	return 0
}

// Attributed returns the total latency assigned to named causes
// (everything except the residual).
func (r QueryRecord) Attributed() sim.Duration {
	return r.Service + r.Queue + r.Harvest + r.Evict + r.Throttle + r.Disk + r.Spread
}

// BlameRow is the decomposition of the query sitting at one latency
// quantile of a cell.
type BlameRow struct {
	Quantile string // "p50", "p90", "p99", "p999"
	Record   QueryRecord
}

// CellForensics is a cell's tail-forensics blame table: the measured
// query count and one decomposed record per reported quantile.
type CellForensics struct {
	Queries int
	Rows    []BlameRow
}

// Quantiles lists the reported tail quantiles in render order.
var Quantiles = []string{"p50", "p90", "p99", "p999"}

var quantileValues = map[string]float64{
	"p50": 0.50, "p90": 0.90, "p99": 0.99, "p999": 0.999,
}

// RecordLog holds the measured QueryRecords of a cell whose query IDs
// are [0, n), and builds the cell's blame table from them. A latency
// column keeps one uint32 per ID: the record's latency in nanoseconds,
// or noRecord while the ID has none. A record that is dropped, or
// whose latency is not all service, also appends an entry to a side
// log. Append panics on a record that does not fit: an ID outside
// [0, n) or already appended, a latency outside [0, 2^32-2] ns, or a
// cause outside [0, 2^32-1] ns (about 4.29 s).
type RecordLog struct {
	lat []uint32
	n   int // records appended
	// side holds the side log in chunks of sideChunk bytes, filled in
	// append order. An entry is the ID shifted left by one over the
	// dropped flag, as a little-endian uint32; then a mask with bit k
	// set when cause Causes[k] is nonzero; then those causes, in
	// Causes order, as little-endian uint32 nanoseconds. No entry spans
	// two chunks.
	side [][]byte
}

// noRecord marks an ID with no record in the latency column. It is the
// largest uint32, so it sorts after every latency a record can have.
const noRecord = math.MaxUint32

// sideChunk is the size of a side-log chunk: 8 KiB, one of the
// allocator's size classes, so nothing is rounded up. A chunk takes
// entries while it has room for the largest, so it wastes less than
// that at its tail. The log grows a chunk at a time and never by
// append, which would copy it at each growth and allocate several
// times its final size.
const sideChunk = 8 << 10

// sideEntryMax is the size of a side-log entry with all eight causes.
const sideEntryMax = 4 + 1 + 8*4

// NewRecordLog returns an empty log for the query IDs [0, n). A side-log
// entry keeps an ID in 31 bits, so n is at most 2^31.
func NewRecordLog(n int) *RecordLog {
	if n < 0 || n > math.MaxInt32+1 {
		panic(fmt.Sprintf("simtrace: a record log of %d IDs is outside [0, 2^31]", n))
	}
	lat := make([]uint32, n)
	for i := range lat {
		lat[i] = noRecord
	}
	return &RecordLog{lat: lat}
}

// Append stores r's latency in the column, and appends a side-log
// entry for r if it is dropped or its latency is not all service.
func (l *RecordLog) Append(r QueryRecord) {
	if uint(r.ID) >= uint(len(l.lat)) {
		panic(fmt.Sprintf("simtrace: record ID %d is outside the log's IDs [0, %d)", r.ID, len(l.lat)))
	}
	if l.lat[r.ID] != noRecord {
		panic(fmt.Sprintf("simtrace: record ID %d appended twice", r.ID))
	}
	lat := ns("Latency", r.Latency, noRecord-1)
	if r.Dropped || r.Service != r.Latency || r.Queue|r.Harvest|r.Evict|r.Throttle|r.Disk|r.Spread|r.Other != 0 {
		l.addSide(&r)
	}
	l.lat[r.ID] = lat
	l.n++
}

// addSide appends r's side-log entry, starting a chunk when the last
// one might not hold it.
func (l *RecordLog) addSide(r *QueryRecord) {
	c := [8]sim.Duration{r.Service, r.Queue, r.Harvest, r.Evict, r.Throttle, r.Disk, r.Spread, r.Other}
	if uint64(c[0]|c[1]|c[2]|c[3]|c[4]|c[5]|c[6]|c[7]) > math.MaxUint32 {
		// A negative cause sets the top bit, so one is out of range.
		for k, name := range [8]string{"Service", "Queue", "Harvest", "Evict", "Throttle", "Disk", "Spread", "Other"} {
			ns(name, c[k], math.MaxUint32)
		}
	}
	if len(l.side) == 0 || cap(l.side[len(l.side)-1])-len(l.side[len(l.side)-1]) < sideEntryMax {
		l.side = append(l.side, make([]byte, 0, sideChunk))
	}
	ch := l.side[len(l.side)-1]
	e := ch[len(ch) : len(ch)+sideEntryMax]
	w := uint32(r.ID) << 1
	if r.Dropped {
		w |= 1
	}
	binary.LittleEndian.PutUint32(e, w)
	n := 5
	var mask byte
	for k, d := range c {
		if d != 0 {
			mask |= 1 << k
			binary.LittleEndian.PutUint32(e[n:], uint32(d))
			n += 4
		}
	}
	e[4] = mask
	l.side[len(l.side)-1] = ch[:len(ch)+n]
}

// ns packs one duration of a record, named field, into a uint32 of at
// most limit nanoseconds.
func ns(field string, d sim.Duration, limit uint32) uint32 {
	if uint64(d) > uint64(limit) {
		panic(fmt.Sprintf("simtrace: record %s %d ns does not fit the log (0 to %d ns)", field, int64(d), limit))
	}
	return uint32(d)
}

// records returns the records logged under ids, each of which must
// have one: the latency from the column, and the dropped flag and the
// causes from the side log, which it reads once.
func (l *RecordLog) records(ids ...int) []QueryRecord {
	out := make([]QueryRecord, len(ids))
	for i, id := range ids {
		lat := sim.Duration(l.lat[id])
		out[i] = QueryRecord{ID: id, Latency: lat, Service: lat}
	}
	l.eachSide(func(e []byte) {
		id := int(binary.LittleEndian.Uint32(e) >> 1)
		for i := range out {
			if out[i].ID == id {
				unpackSide(&out[i], e)
			}
		}
	})
	return out
}

// eachSide calls f with each side-log entry, in append order.
func (l *RecordLog) eachSide(f func(e []byte)) {
	for _, ch := range l.side {
		for len(ch) > 0 {
			e := ch[:5+4*bits.OnesCount8(ch[4])]
			ch = ch[len(e):]
			f(e)
		}
	}
}

// unpackSide sets r's dropped flag and causes from its side-log entry.
func unpackSide(r *QueryRecord, e []byte) {
	r.Dropped = e[0]&1 != 0
	mask, c := e[4], e[5:]
	for k, f := range [8]*sim.Duration{&r.Service, &r.Queue, &r.Harvest, &r.Evict, &r.Throttle, &r.Disk, &r.Spread, &r.Other} {
		*f = 0
		if mask&(1<<k) != 0 {
			*f = sim.Duration(binary.LittleEndian.Uint32(c))
			c = c[4:]
		}
	}
}

// BlameTable builds the per-cell blame table from the log. Quantile
// queries are selected deterministically: the ceil(q*n)-th record in
// (latency, id) order is taken, matching the usual order-statistic
// convention. Only the four selected records are read whole. Returns
// nil when no queries were measured.
func (l *RecordLog) BlameTable() *CellForensics {
	if l.n == 0 {
		return nil
	}
	ranks := make([]int, len(Quantiles))
	for i, q := range Quantiles {
		ranks[i] = min(max(int(float64(l.n)*quantileValues[q]+0.999999)-1, 0), l.n-1)
	}
	recs := l.records(l.selectIDs(ranks)...)
	cf := &CellForensics{Queries: l.n}
	for i, q := range Quantiles {
		cf.Rows = append(cf.Rows, BlameRow{Quantile: q, Record: recs[i]})
	}
	return cf
}

// maxRanks is the most ranks selectIDs takes at once: one for each of
// Quantiles.
const maxRanks = 4

// selectIDs returns, for each zero-based rank, the ID of the record at
// that rank in (latency, id) order. It is an exact radix selection over
// the latency column in digits of 11, 11 and 10 bits, each pass serving
// every rank: one pass counts the top digit of every latency, one the
// middle digit of the latencies in the ranks' top buckets, one the low
// digit of those that share a rank's top two digits, and a last pass
// walks the column to each rank's record among those with the latency
// found. The column is in ID order, so ties fall to the lower ID. IDs
// with no record hold noRecord, which sorts after every latency, and
// every rank is below the record count, so none is selected.
func (l *RecordLog) selectIDs(ranks []int) []int {
	var (
		prefix [maxRanks]uint32 // the digits of each rank's latency found so far
		rank   [maxRanks]int    // its rank among the latencies that share them
	)
	var top [1 << 11]uint32
	for _, v := range l.lat {
		top[v>>21]++
	}
	for i, k := range ranks {
		prefix[i], rank[i] = bucket(top[:], k)
	}
	// slot numbers a histogram for each rank's top digit, and slot2 for
	// each rank's top two digits; ranks that share the digits share the
	// histogram. Every other latency counts into histogram 0, so the
	// counting passes never branch.
	var slot [1 << 11]uint8
	var slot2 [maxRanks + 1][1 << 11]uint8
	var mid [maxRanks + 1][1 << 11]uint32
	var low [maxRanks + 1][1 << 10]uint32
	for i := range ranks {
		slot[prefix[i]] = uint8(i + 1)
	}
	for _, v := range l.lat {
		mid[slot[v>>21]][v>>10&(1<<11-1)]++
	}
	for i := range ranks {
		s := slot[prefix[i]]
		m, k := bucket(mid[s][:], rank[i])
		slot2[s][m] = uint8(i + 1)
		prefix[i], rank[i] = prefix[i]<<11|m, k
	}
	for _, v := range l.lat {
		low[slot2[slot[v>>21]][v>>10&(1<<11-1)]][v&(1<<10-1)]++
	}
	for i := range ranks {
		b, k := bucket(low[slot2[slot[prefix[i]>>11]][prefix[i]&(1<<11-1)]][:], rank[i])
		prefix[i], rank[i] = prefix[i]<<10|b, k
	}
	ids := make([]int, len(ranks))
	for id, v := range l.lat {
		if slot2[slot[v>>21]][v>>10&(1<<11-1)] == 0 {
			continue
		}
		for i := range ranks {
			if v == prefix[i] {
				if rank[i] == 0 {
					ids[i] = id
				}
				rank[i]--
			}
		}
	}
	return ids
}

// bucket returns the bucket of counts h that holds rank k, and k's rank
// within that bucket.
func bucket(h []uint32, k int) (uint32, int) {
	for b, c := range h {
		if k < int(c) {
			return uint32(b), k
		}
		k -= int(c)
	}
	panic("simtrace: rank beyond the counted latencies")
}
