// Package report renders the reproduction's figures: deterministic
// SVG charts (line, step, scatter, CDF marks with a small
// axis/tick/legend engine) built from the results/ artifacts, so the
// paper's visual evidence — core-allocation timelines, latency
// curves, harvest frontiers — is a committed, drift-gated artifact
// exactly like cells.csv and RESULTS.md.
//
// # Determinism rules
//
// A figure's bytes are a pure function of its input values. The
// renderer enforces that the way the rest of the repo enforces
// bit-identical results:
//
//   - No timestamps, hostnames, versions or generator comments in the
//     output. An SVG carries only geometry derived from data.
//   - Fixed attribute order. Elements are emitted through a writer
//     that takes attributes as an explicit (key, value) list — never a
//     map — so the serialization order is the source order.
//   - Fixed-precision coordinates. Every geometric coordinate is
//     rounded to 1/100 px and formatted with the shortest exact
//     decimal representation ("-0" normalized to "0"), so float noise
//     below visual relevance can never flip a byte.
//   - Deterministic ticks. Axis ticks come from the classic
//     nice-numbers algorithm (1/2/5 × 10^k steps); labels are printed
//     with a precision derived from the step, not %g of an
//     accumulated float.
//   - No map iteration. Dataset accessors return sorted cell names
//     and sorted track names; figure builders consume those or name
//     cells explicitly. Input insertion order is irrelevant — the
//     property test shuffles it and asserts identical bytes.
//   - Stable palette and layout. Series colors are assigned by series
//     index from a fixed palette; margins, fonts and legend geometry
//     are constants.
//
// # Data sources
//
// Dataset is the renderer's only input: scalar metrics (cells.csv
// shape) plus per-cell time series (series.csv shape). It can be
// built two ways that yield byte-identical figures:
//
//   - DatasetOf(res) projects a live experiments.RunResult — used by
//     `perfiso-repro run/merge/serve` so reports embed figure links
//     even when artifact writing is disabled.
//   - LoadDir(dir) parses the committed CSV artifacts — used by
//     `perfiso-repro report` to re-render without re-simulating.
//
// The equivalence holds because both CSVs print floats with
// strconv.FormatFloat(v, 'g', -1, 64): the shortest representation
// that round-trips, so parsed values equal in-memory values bitwise.
//
// Figures(ds) maps the registered experiments onto a fixed list of
// figure specs (Figs. 4–10 plus the repo's extensions); WriteFigures
// renders them under results/<scale>/figures/ and prunes stale files.
// CI regenerates the directory and fails on any byte drift, at test
// scale on every push and across shard merges.
package report
