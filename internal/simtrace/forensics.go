package simtrace

import (
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

// BlameTable builds the per-cell blame table from the measured query
// records. Quantile queries are selected deterministically: the
// ceil(q*n)-th record in (latency, id) order is taken, matching the
// usual order-statistic convention. Ids are unique, so the order is
// total and a selection picks the record a full sort would put there.
// It reorders records in place. Returns nil when no queries were
// measured.
func BlameTable(records []QueryRecord) *CellForensics {
	if len(records) == 0 {
		return nil
	}
	cf := &CellForensics{Queries: len(records)}
	lo := 0
	for _, q := range Quantiles {
		idx := int(float64(len(records))*quantileValues[q]+0.999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(records) {
			idx = len(records) - 1
		}
		// Quantiles ascend, and each selection leaves the records
		// before its index earlier in the order, so the next
		// quantile's record lies at or after the last index.
		selectRecord(records[lo:], idx-lo)
		lo = idx
		cf.Rows = append(cf.Rows, BlameRow{Quantile: q, Record: records[idx]})
	}
	return cf
}

// before is the (latency, id) order quantiles are read in.
func before(a, b *QueryRecord) bool {
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return a.ID < b.ID
}

// selectRecord reorders rs so that rs[k] is the record a sort by
// (latency, id) would put there, with the records before it earlier in
// that order and the ones after it later. It is quickselect with a
// median-of-three pivot, expected O(n). Short ranges, and ranges the
// partitions have failed to shrink after 2·log2(n) rounds, are sorted,
// which bounds the worst case at O(n log n).
func selectRecord(rs []QueryRecord, k int) {
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
	sort.Slice(rs[lo:hi], func(i, j int) bool { return before(&rs[lo+i], &rs[lo+j]) })
}

// partition moves the median of rs's first, middle and last records
// to where it belongs in the order, the earlier records before it and
// the later ones after, and returns its index. rs holds at least three
// records.
func partition(rs []QueryRecord) int {
	last, mid := len(rs)-1, len(rs)/2
	if before(&rs[mid], &rs[0]) {
		rs[mid], rs[0] = rs[0], rs[mid]
	}
	if before(&rs[last], &rs[mid]) {
		rs[last], rs[mid] = rs[mid], rs[last]
		if before(&rs[mid], &rs[0]) {
			rs[mid], rs[0] = rs[0], rs[mid]
		}
	}
	rs[mid], rs[last] = rs[last], rs[mid]
	i := 0
	for j := 0; j < last; j++ {
		if before(&rs[j], &rs[last]) {
			rs[i], rs[j] = rs[j], rs[i]
			i++
		}
	}
	rs[i], rs[last] = rs[last], rs[i]
	return i
}
