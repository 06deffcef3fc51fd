package shard

import (
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Merge(reg, spec, benchFilter, benchPartials); err != nil {
			b.Fatal(err)
		}
	}
}
