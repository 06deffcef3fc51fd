package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
)

// ForensicsRow pairs one cell with its tail-forensics blame table —
// the forensics.csv analogue of Row.
type ForensicsRow struct {
	Cell  string
	Table *simtrace.CellForensics
}

// singleForensics pairs cells with their results' blame tables, in
// cell order, dropping cells that captured none (a zero-query
// measured window).
func singleForensics(cells []Cell, results []any) []ForensicsRow {
	var out []ForensicsRow
	for i, c := range cells {
		if f := results[i].(SingleResult).Forensics; f != nil {
			out = append(out, ForensicsRow{Cell: c.Name, Table: f})
		}
	}
	return out
}

// forensicsMs converts an exact sim-domain duration to the float
// milliseconds emitted into forensics.csv. The division by a power of
// ten is exact in the artifact sense: FormatFloat('g', -1) renders the
// shortest representation that re-parses to the same float64, so the
// CSV round-trips bit-identically.
func forensicsMs(d sim.Duration) float64 {
	return float64(d) / float64(sim.Millisecond)
}

// ForensicsStats flattens one blame-table record into the canonical
// stat order of forensics.csv: the query's identity and total latency
// first, then one milliseconds value per attribution cause. The
// figure renderer projects live runs through the same function, so
// CSV-fed and live-run figures see identical floats.
func ForensicsStats(rec simtrace.QueryRecord) []Metric {
	m := []Metric{
		{"query_id", float64(rec.ID)},
		{"dropped", 0},
		{"latency_ms", forensicsMs(rec.Latency)},
	}
	if rec.Dropped {
		m[1].Value = 1
	}
	for _, cause := range simtrace.Causes {
		m = append(m, Metric{cause + "_ms", forensicsMs(rec.Cause(cause))})
	}
	return m
}

// RenderForensicsCSV renders the run's tail-forensics artifact: one
// long-format row per blame-table stat, in experiment → cell →
// quantile → stat order. Every value derives from exact int64
// sim-domain durations carried inside the cells' JSON results, so the
// file is byte-identical across worker counts and shard merges, like
// cells.csv and series.csv.
func RenderForensicsCSV(res RunResult) string {
	var csv strings.Builder
	csv.WriteString("experiment,cell,quantile,stat,value\n")
	for _, e := range res.Experiments {
		for _, fr := range e.Report.Forensics {
			fmt.Fprintf(&csv, "%s,%s,all,queries,%d\n", e.Name, fr.Cell, fr.Table.Queries)
			for _, row := range fr.Table.Rows {
				for _, m := range ForensicsStats(row.Record) {
					fmt.Fprintf(&csv, "%s,%s,%s,%s,%s\n", e.Name, fr.Cell, row.Quantile, m.Name,
						strconv.FormatFloat(m.Value, 'g', -1, 64))
				}
			}
		}
	}
	return csv.String()
}
