package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Span is one traced cell execution. Unit is the manifest unit that
// ran it, and Worker the pool goroutine ("pool/<i>") of an in-process
// run or the shard ("shard-<i>/<N>") of a sharded one.
type Span struct {
	Experiment string  `json:"experiment"`
	Cell       string  `json:"cell"`
	Unit       string  `json:"unit,omitempty"`
	Worker     string  `json:"worker,omitempty"`
	StartMs    float64 `json:"start_ms"`
	DurationMs float64 `json:"duration_ms"`
}

// TraceBuffer accumulates spans from concurrent producers.
type TraceBuffer struct {
	mu    sync.Mutex
	spans []Span
}

// NewTraceBuffer returns an empty buffer.
func NewTraceBuffer() *TraceBuffer { return &TraceBuffer{} }

// Add appends one span. Safe for concurrent use.
func (b *TraceBuffer) Add(s Span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// Spans returns a copy of the recorded spans sorted by start time,
// then experiment/cell for ties — a deterministic order regardless of
// goroutine interleaving.
func (b *TraceBuffer) Spans() []Span {
	b.mu.Lock()
	out := make([]Span, len(b.spans))
	copy(out, b.spans)
	b.mu.Unlock()
	SortSpans(out)
	return out
}

// Len reports the number of recorded spans.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.spans)
}

// SortSpans orders spans by start time, breaking ties by experiment,
// cell, unit, then worker. Merged traces need the full order: shard
// partials arrive in any order, and a total order on the span's fields
// keeps the merged trace.jsonl bytes independent of it.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.StartMs != b.StartMs {
			return a.StartMs < b.StartMs
		}
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		return a.Worker < b.Worker
	})
}

// WriteJSONL writes one span per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace written by WriteJSONL.
func ReadTrace(r io.Reader) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}
