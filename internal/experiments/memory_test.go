package experiments

import (
	"runtime"
	"testing"

	"perfiso/internal/isolation"
)

// TestCellMemoryPerQuery bounds what a single-machine cell allocates
// per query: between 10k and 20k queries, the growth of
// runtime.MemStats.TotalAlloc over RunSingle, divided by the extra
// queries. The arrivals are streamed and the forensic log keeps a
// 4-byte latency per query ID, plus a side-log entry (13 bytes for the
// usual two causes) when a measured query is dropped or its latency is
// not all service, so a cell at the registry's one-fifth warmup grows
// by about 8 B per query. The 12-byte rows and 32-byte side entries
// the log used to keep (about 16 B per query) would push it past the
// bound.
func TestCellMemoryPerQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two cells")
	}
	alloc := func(queries int) uint64 {
		scale := Scale{Queries: queries, Warmup: queries / 5, Seed: 2017}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		RunSingle(4000, BullyHigh, &isolation.Blind{BufferCores: 8}, scale)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const lo, hi = 10_000, 20_000
	alloc(lo) // warm the process's one-time allocations
	a, b := alloc(lo), alloc(hi)
	perQuery := (float64(b) - float64(a)) / (hi - lo)
	t.Logf("TotalAlloc: %d B at %d queries, %d B at %d: %.1f B per extra query", a, lo, b, hi, perQuery)
	if perQuery > 10 {
		t.Errorf("a cell allocates %.1f B per extra query, want at most 10", perQuery)
	}
}
