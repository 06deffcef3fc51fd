package simtrace

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

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
// that lets forensics ride shard/dispatch merges for free.
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

// RecordLog holds a cell's measured QueryRecords, each packed into a
// 12-byte row, and builds the cell's blame table from them. A record
// whose latency is all service keeps nothing else; any other record
// also keeps its eight causes in a side table. Append panics on a
// record that does not fit: an ID outside [0, 2^31-1] or a duration
// outside [0, 2^32-1] ns, about 4.29 s.
type RecordLog struct {
	rows []row
	// side holds the causes of the records that are not all service,
	// in chunks of sideChunk entries; sideLen counts the entries used.
	side    []*[sideChunk]causes
	sideLen int
}

// row is a packed QueryRecord: the ID shifted left by one over the
// dropped flag, the latency as uint32 nanoseconds, and ref, which is 0
// for a pure-service record (Service equal to Latency, every other
// cause zero) and otherwise one more than the index of its causes in
// the side table. The latency follows the ID word, so on a
// little-endian machine key reads both in one load.
type row struct {
	id, lat, ref uint32
}

// causes is a record's eight causes, in Causes order, as uint32
// nanoseconds.
type causes [8]uint32

// sideChunk is the number of side-table entries allocated at once: 8
// KiB, a size class of its own, so a log wastes at most one chunk's
// tail. The table grows a chunk at a time and never by append, which
// would copy it at each growth and allocate several times its final
// size.
const sideChunk = 256

// NewRecordLog returns an empty log with room for n records.
func NewRecordLog(n int) *RecordLog { return &RecordLog{rows: make([]row, 0, n)} }

// Append packs r into a row, and its causes into the side table unless
// its latency is all service.
func (l *RecordLog) Append(r QueryRecord) {
	if uint64(r.ID) > math.MaxInt32 {
		panic(fmt.Sprintf("simtrace: record ID %d does not fit a row (0 to %d)", r.ID, math.MaxInt32))
	}
	rw := row{id: uint32(r.ID) << 1, lat: ns("Latency", r.Latency)}
	if r.Dropped {
		rw.id |= 1
	}
	if r.Service != r.Latency || r.Queue|r.Harvest|r.Evict|r.Throttle|r.Disk|r.Spread|r.Other != 0 {
		rw.ref = l.addCauses(causes{
			ns("Service", r.Service), ns("Queue", r.Queue), ns("Harvest", r.Harvest),
			ns("Evict", r.Evict), ns("Throttle", r.Throttle), ns("Disk", r.Disk),
			ns("Spread", r.Spread), ns("Other", r.Other),
		})
	}
	l.rows = append(l.rows, rw)
}

// addCauses stores c in the side table, starting a chunk when the last
// one is full, and returns the ref a row keeps for it.
func (l *RecordLog) addCauses(c causes) uint32 {
	i := l.sideLen
	if uint64(i) == math.MaxUint32 {
		panic("simtrace: record log side table is full")
	}
	if i%sideChunk == 0 {
		l.side = append(l.side, new([sideChunk]causes))
	}
	l.side[i/sideChunk][i%sideChunk] = c
	l.sideLen++
	return uint32(i) + 1
}

// ns packs one duration of a record, named field, into a row.
func ns(field string, d sim.Duration) uint32 {
	if uint64(d) > math.MaxUint32 {
		panic(fmt.Sprintf("simtrace: record %s %d ns does not fit a row (0 to %d ns)", field, int64(d), uint32(math.MaxUint32)))
	}
	return uint32(d)
}

// record unpacks a row.
func (l *RecordLog) record(r row) QueryRecord {
	lat := sim.Duration(r.lat)
	q := QueryRecord{ID: int(r.id >> 1), Dropped: r.id&1 != 0, Latency: lat, Service: lat}
	if r.ref == 0 {
		return q
	}
	i := int(r.ref - 1)
	c := &l.side[i/sideChunk][i%sideChunk]
	d := func(k int) sim.Duration { return sim.Duration(c[k]) }
	q.Service, q.Queue, q.Harvest, q.Evict = d(0), d(1), d(2), d(3)
	q.Throttle, q.Disk, q.Spread, q.Other = d(4), d(5), d(6), d(7)
	return q
}

// key is the (latency, id) order quantiles are read in: the latency
// above the ID. The dropped flag sits below the ID, and IDs are
// unique, so it never decides.
func (r *row) key() uint64 { return uint64(r.lat)<<32 | uint64(r.id) }

// BlameTable builds the per-cell blame table from the log. Quantile
// queries are selected deterministically: the ceil(q*n)-th record in
// (latency, id) order is taken, matching the usual order-statistic
// convention. Ids are unique, so the order is total and a selection
// picks the record a full sort would put there. Only the four selected
// rows are unpacked. It reorders the log's rows. Returns nil when no
// queries were measured.
func (l *RecordLog) BlameTable() *CellForensics {
	rows := l.rows
	if len(rows) == 0 {
		return nil
	}
	cf := &CellForensics{Queries: len(rows)}
	lo := 0
	for _, q := range Quantiles {
		idx := int(float64(len(rows))*quantileValues[q]+0.999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(rows) {
			idx = len(rows) - 1
		}
		// Quantiles ascend, and each selection leaves the rows before
		// its index earlier in the order, so the next quantile's row
		// lies at or after the last index.
		selectRow(rows[lo:], idx-lo)
		lo = idx
		cf.Rows = append(cf.Rows, BlameRow{Quantile: q, Record: l.record(rows[idx])})
	}
	return cf
}

// selectRow reorders rs so that rs[k] is the row a sort by key would
// put there, with the rows before it earlier in that order and the
// ones after it later. It is quickselect with a median-of-three pivot,
// expected O(n). Short ranges, and ranges the partitions have failed
// to shrink after 2·log2(n) rounds, are sorted, which bounds the worst
// case at O(n log n).
func selectRow(rs []row, k int) {
	lo, hi := 0, len(rs)
	for rounds := 2 * bits.Len(uint(len(rs))); hi-lo > 16 && rounds > 0; rounds-- {
		p := lo + partition(rs[lo:hi])
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
	sort.Slice(rs[lo:hi], func(i, j int) bool { return rs[lo+i].key() < rs[lo+j].key() })
}

// partition moves the median of rs's first, middle and last rows to
// where it belongs in the order, the earlier rows before it and the
// later ones after, and returns its index. rs holds at least three
// rows.
func partition(rs []row) int {
	last, mid := len(rs)-1, len(rs)/2
	if rs[mid].key() < rs[0].key() {
		rs[mid], rs[0] = rs[0], rs[mid]
	}
	if rs[last].key() < rs[mid].key() {
		rs[last], rs[mid] = rs[mid], rs[last]
		if rs[mid].key() < rs[0].key() {
			rs[mid], rs[0] = rs[0], rs[mid]
		}
	}
	rs[mid], rs[last] = rs[last], rs[mid]
	pivot := rs[last].key()
	i := 0
	for j := 0; j < last; j++ {
		if rs[j].key() < pivot {
			rs[i], rs[j] = rs[j], rs[i]
			i++
		}
	}
	rs[i], rs[last] = rs[last], rs[i]
	return i
}
