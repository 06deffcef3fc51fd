package shard

import (
	"encoding/json"
	"sync"
	"testing"

	"perfiso/internal/experiments"
)

// BenchmarkPlan plans the full registry and hashes its manifest: the
// work the benchmark's setup_s and shard.manifest_s time.
func BenchmarkPlan(b *testing.B) {
	for _, tc := range []struct {
		name string
		spec experiments.ScaleSpec
	}{{"test", experiments.TestSpec()}, {"paper", experiments.PaperSpec()}} {
		b.Run(tc.name, func(b *testing.B) {
			reg := experiments.DefaultRegistry()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(reg, tc.spec, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFilter is a cheap selection whose cells decode to two result
// types.
const benchFilter = "^(fig10|headline)$"

var (
	benchPartialsOnce sync.Once
	benchPartials     []Partial
	benchPartialsErr  error
)

// BenchmarkMerge merges the two-shard partials of benchFilter, built
// once outside the timer: coverage checks, decoding and assembly.
func BenchmarkMerge(b *testing.B) {
	reg := experiments.DefaultRegistry()
	spec := experiments.TestSpec()
	benchPartialsOnce.Do(func() {
		for i := 0; i < 2; i++ {
			p, err := RunShard(reg, RunShardOptions{Spec: spec, Filter: benchFilter, Shard: i, Shards: 2})
			if err != nil {
				benchPartialsErr = err
				return
			}
			benchPartials = append(benchPartials, p)
		}
	})
	if benchPartialsErr != nil {
		b.Fatal(benchPartialsErr)
	}
	plan, m, err := BuildPlan(reg, spec, benchFilter)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Merge(plan, m, benchPartials); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellCodec encodes and decodes one cell result the way a
// partial carries it: json.Marshal on the shard that ran the unit
// (runUnits), the experiment's DecodeResult on merge.
// "single" is a Fig. 4 single-machine cell, with its forensic blame
// table and 40-window series; "harvest" is a harvest-frontier
// HarvestPoint. Each cell runs once, at test scale, off the clock.
func BenchmarkCellCodec(b *testing.B) {
	reg := experiments.DefaultRegistry()
	for _, tc := range []struct{ name, experiment string }{
		{"single", "fig4"},
		{"harvest", "harvest-frontier"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			plan, _, err := BuildPlan(reg, experiments.TestSpec(), "^"+tc.experiment+"$")
			if err != nil {
				b.Fatal(err)
			}
			cells, err := runUnits(plan, []string{plan.Units[0].ID}, experiments.RunOptions{Workers: 1}, "")
			if err != nil {
				b.Fatal(err)
			}
			pc := cells[0]
			e, _ := reg.Get(tc.experiment)
			v, err := e.DecodeResult(pc.Result)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(pc.Result)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err := json.Marshal(v)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.DecodeResult(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
