package experiments

import (
	"perfiso/internal/cluster"
	"perfiso/internal/sim"
)

// SeriesWindows is the per-cell sample budget of the time-series
// capture: every sampled cell carries about this many points per
// track regardless of scale, so the committed series.csv stays the
// same size at test and paper scale and figures keep a readable
// density.
const SeriesWindows = 40

// seriesMaxPoints bounds projected series (timeline, Fig. 10) whose
// native sample counts grow with scale: longer runs are downsampled
// by a deterministic stride instead of bloating the artifacts.
const seriesMaxPoints = 120

// SeriesPoint is one sample of a per-cell time series: V observed at
// simulated time T (seconds).
type SeriesPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// SeriesTrack is one named per-cell time series ("p99_ms",
// "alloc_cores", …). Tracks are captured at simulated-clock window
// boundaries by a seeded cell's own engine, so they are as
// deterministic as the scalar metrics: bit-identical at any worker
// count and across shard merges (they ride in the cell's
// JSON result, which round-trips floats exactly).
type SeriesTrack struct {
	Name   string        `json:"name"`
	Unit   string        `json:"unit"`
	Points []SeriesPoint `json:"points"`
}

// sampler drives sim-clock-synchronous probing: it schedules one
// event per window boundary and records each registered probe's value
// there. Probes run inside the engine, so sampling is part of the
// seeded simulation itself — the same cell produces the same tracks
// everywhere.
type sampler struct {
	eng     *sim.Engine
	window  sim.Duration
	windows int
	names   []string
	units   []string
	probes  []func(window int) float64
	points  [][]SeriesPoint
}

// newSampler splits [0, span] into SeriesWindows windows. A span too
// short to split returns a sampler that records nothing.
func newSampler(eng *sim.Engine, span sim.Duration) *sampler {
	window := span / SeriesWindows
	s := &sampler{eng: eng, window: window, windows: SeriesWindows}
	if window <= 0 {
		// Degenerate span: keep a positive window so windowed
		// consumers (WindowedLatency) stay well-defined, record nothing.
		s.window, s.windows = sim.Second, 0
	}
	return s
}

// probe registers one track; fn is called at the end of each window
// with the zero-based window index.
func (s *sampler) probe(name, unit string, fn func(window int) float64) {
	s.names = append(s.names, name)
	s.units = append(s.units, unit)
	s.probes = append(s.probes, fn)
	s.points = append(s.points, make([]SeriesPoint, 0, s.windows))
}

// start schedules the boundary events. Call after every probe is
// registered and before the engine runs.
func (s *sampler) start() {
	for w := 0; w < s.windows; w++ {
		w := w
		at := sim.Time(w+1) * sim.Time(s.window)
		s.eng.At(at, func() {
			t := at.Seconds()
			for i, fn := range s.probes {
				s.points[i] = append(s.points[i], SeriesPoint{T: t, V: fn(w)})
			}
		})
	}
}

// tracks returns the captured series, one per registered probe, in
// registration order. Probes whose window never fired (span too
// short, or the engine stopped early) yield shorter or empty tracks.
func (s *sampler) tracks() []SeriesTrack {
	out := make([]SeriesTrack, len(s.probes))
	for i := range s.probes {
		out[i] = SeriesTrack{Name: s.names[i], Unit: s.units[i], Points: s.points[i]}
	}
	return out
}

// SeriesRow pairs one cell with its captured tracks — the series.csv
// analogue of Row.
type SeriesRow struct {
	Cell   string
	Tracks []SeriesTrack
}

// singleSeries pairs cells with their results' tracks, in cell order,
// dropping cells that captured nothing.
func singleSeries(cells []Cell, results []any) []SeriesRow {
	var out []SeriesRow
	for i, c := range cells {
		tracks := results[i].(SingleResult).Series
		if len(tracks) > 0 {
			out = append(out, SeriesRow{Cell: c.Name, Tracks: tracks})
		}
	}
	return out
}

// downsample keeps every stride-th point so projected series stay
// within the artifact budget; the stride is a pure function of the
// input length.
func downsample(points []SeriesPoint) []SeriesPoint {
	if len(points) <= seriesMaxPoints {
		return points
	}
	stride := (len(points) + seriesMaxPoints - 1) / seriesMaxPoints
	out := make([]SeriesPoint, 0, seriesMaxPoints)
	for i := 0; i < len(points); i += stride {
		out = append(out, points[i])
	}
	return out
}

// SeriesTracks projects the timeline's native windows into series
// tracks for the artifacts and figures.
func (r TimelineResult) SeriesTracks() []SeriesTrack {
	qps := make([]SeriesPoint, len(r.Samples))
	p99 := make([]SeriesPoint, len(r.Samples))
	used := make([]SeriesPoint, len(r.Samples))
	sec := make([]SeriesPoint, len(r.Samples))
	for i, s := range r.Samples {
		t := s.At.Seconds()
		qps[i] = SeriesPoint{T: t, V: s.QPS}
		p99[i] = SeriesPoint{T: t, V: s.P99ms}
		used[i] = SeriesPoint{T: t, V: s.CPUUsedPct}
		sec[i] = SeriesPoint{T: t, V: s.SecPct}
	}
	return []SeriesTrack{
		{Name: "qps", Unit: "qps", Points: downsample(qps)},
		{Name: "p99_ms", Unit: "ms", Points: downsample(p99)},
		{Name: "cpu_used_pct", Unit: "%", Points: downsample(used)},
		{Name: "sec_pct", Unit: "%", Points: downsample(sec)},
	}
}

// productionSeries projects the Fig. 10 fluid-model samples through
// the timeline's SeriesTracks: both sample the same four quantities.
func productionSeries(p cluster.ProductionResult) []SeriesTrack {
	r := TimelineResult{Samples: make([]TimelineSample, len(p.Samples))}
	for i, s := range p.Samples {
		r.Samples[i] = TimelineSample{At: s.At, QPS: s.QPS, P99ms: s.P99ms, CPUUsedPct: s.CPUUsedPct, SecPct: s.SecondaryPct}
	}
	return r.SeriesTracks()
}
