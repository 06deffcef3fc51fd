package shard

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"perfiso/internal/obs"
)

// FuzzReadPartial feeds ReadPartial's decoder arbitrary bytes. It must
// never panic, and a partial it accepts, written back with WritePartial
// and read again with ReadPartial, must come back equal, as the encoder
// writes it: each cell's raw result compact, with HTML-escaped strings
// and null when absent, and an empty span list, which it omits, nil.
func FuzzReadPartial(f *testing.F) {
	p := Partial{
		Version: PartialVersion, ManifestHash: "sha256:00", Scale: "test", Filter: "^fig4$",
		Shard: 1, Shards: 3, Workers: 2, ElapsedSeconds: 1.25,
		Cells: []PartialCell{
			{Unit: "key:single/a", Experiment: "fig4", Cell: "qps=2000", Result: json.RawMessage(`{"p99_ms": 1.5, "tag": "<b>"}`), Seconds: 0.5},
			{Unit: "cell:fig4/b", Experiment: "fig4", Cell: "b", Seconds: 1e-9},
		},
		Spans: []obs.Span{{Experiment: "fig4", Cell: "qps=2000", Unit: "key:single/a", Worker: "shard-1/3", StartMs: 0, DurationMs: 500}},
	}
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"version":1,"cells":[{"unit":"u","result":null},{"unit":"v","result":[1," &"]}]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		p, err := decodePartial("fuzz", blob)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "p.json")
		if err := WritePartial(path, p); err != nil {
			t.Fatalf("accepted partial fails to write: %v", err)
		}
		again, err := ReadPartial(path)
		if err != nil {
			t.Fatalf("accepted partial fails to re-read: %v\n%s", err, blob)
		}
		if want, got := encoded(t, p), encoded(t, again); !reflect.DeepEqual(got, want) {
			t.Fatalf("partial changed across a write and re-read:\n%+v\n%+v", want, got)
		}
	})
}

// encoded returns p as WritePartial writes it: each cell's result as
// json.Marshal writes it, and nil for an empty span list.
func encoded(t *testing.T, p Partial) Partial {
	cells := make([]PartialCell, len(p.Cells))
	for i, c := range p.Cells {
		raw, err := json.Marshal(c.Result)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		c.Result = raw
		cells[i] = c
	}
	if p.Cells != nil {
		p.Cells = cells
	}
	if len(p.Spans) == 0 {
		p.Spans = nil
	}
	return p
}
