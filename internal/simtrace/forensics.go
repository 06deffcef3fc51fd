package simtrace

import (
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
// records. Quantile queries are selected deterministically: records
// are sorted by (latency, id) and the ceil(q*n)-th record is taken,
// matching the usual order-statistic convention. It sorts records in
// place, so the caller's slice is left reordered. Returns nil when no
// queries were measured.
func BlameTable(records []QueryRecord) *CellForensics {
	if len(records) == 0 {
		return nil
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].Latency != records[j].Latency {
			return records[i].Latency < records[j].Latency
		}
		return records[i].ID < records[j].ID
	})
	cf := &CellForensics{Queries: len(records)}
	for _, q := range Quantiles {
		idx := int(float64(len(records))*quantileValues[q]+0.999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(records) {
			idx = len(records) - 1
		}
		cf.Rows = append(cf.Rows, BlameRow{Quantile: q, Record: records[idx]})
	}
	return cf
}
