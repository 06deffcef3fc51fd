package report

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"perfiso/internal/experiments"
)

// Point is one time-series sample: value V at simulated time T
// (seconds).
type Point struct {
	T, V float64
}

// Track is one named per-cell time series.
type Track struct {
	Name   string
	Unit   string
	Points []Point
}

// Dataset is the renderer's only input: the scalar metrics of
// cells.csv, the per-cell time series of series.csv, and the
// tail-blame stats of forensics.csv. It can be built from a live run
// (DatasetOf) or from the committed artifacts (LoadDir); both yield
// byte-identical figures because the CSVs print floats with the
// shortest round-trippable representation.
//
// All accessors return sorted views, so figure bytes never depend on
// insertion order.
type Dataset struct {
	metrics   map[string]map[string]map[string]float64
	series    map[string]map[string][]Track
	forensics map[string]map[string]map[string]map[string]float64
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		metrics:   map[string]map[string]map[string]float64{},
		series:    map[string]map[string][]Track{},
		forensics: map[string]map[string]map[string]map[string]float64{},
	}
}

// AddMetric records one scalar cell metric.
func (d *Dataset) AddMetric(exp, cell, metric string, v float64) {
	cells := d.metrics[exp]
	if cells == nil {
		cells = map[string]map[string]float64{}
		d.metrics[exp] = cells
	}
	m := cells[cell]
	if m == nil {
		m = map[string]float64{}
		cells[cell] = m
	}
	m[metric] = v
}

// AddSeriesPoint appends one time-series sample to a cell's track,
// creating the track on first use.
func (d *Dataset) AddSeriesPoint(exp, cell, track, unit string, t, v float64) {
	cells := d.series[exp]
	if cells == nil {
		cells = map[string][]Track{}
		d.series[exp] = cells
	}
	tracks := cells[cell]
	for i := range tracks {
		if tracks[i].Name == track {
			tracks[i].Points = append(tracks[i].Points, Point{T: t, V: v})
			return
		}
	}
	cells[cell] = append(tracks, Track{Name: track, Unit: unit, Points: []Point{{T: t, V: v}}})
}

// AddForensic records one tail-blame stat of a cell's quantile row.
func (d *Dataset) AddForensic(exp, cell, quantile, stat string, v float64) {
	cells := d.forensics[exp]
	if cells == nil {
		cells = map[string]map[string]map[string]float64{}
		d.forensics[exp] = cells
	}
	quants := cells[cell]
	if quants == nil {
		quants = map[string]map[string]float64{}
		cells[cell] = quants
	}
	stats := quants[quantile]
	if stats == nil {
		stats = map[string]float64{}
		quants[quantile] = stats
	}
	stats[stat] = v
}

// Metric looks up one scalar cell metric.
func (d *Dataset) Metric(exp, cell, metric string) (float64, bool) {
	v, ok := d.metrics[exp][cell][metric]
	return v, ok
}

// Forensic looks up one tail-blame stat.
func (d *Dataset) Forensic(exp, cell, quantile, stat string) (float64, bool) {
	v, ok := d.forensics[exp][cell][quantile][stat]
	return v, ok
}

// Cells lists the experiment's cells with scalar metrics, sorted.
func (d *Dataset) Cells(exp string) []string {
	var keys []string
	for k := range d.metrics[exp] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SeriesCells lists the experiment's cells with time series, sorted.
func (d *Dataset) SeriesCells(exp string) []string {
	var keys []string
	for k := range d.series[exp] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Tracks returns a cell's time series sorted by track name, each with
// points sorted by time — the canonical view whatever order the
// samples arrived in.
func (d *Dataset) Tracks(exp, cell string) []Track {
	src := d.series[exp][cell]
	out := make([]Track, len(src))
	for i, tr := range src {
		pts := append([]Point(nil), tr.Points...)
		sort.SliceStable(pts, func(a, b int) bool { return pts[a].T < pts[b].T })
		out[i] = Track{Name: tr.Name, Unit: tr.Unit, Points: pts}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Track returns one named track of a cell in canonical (time-sorted)
// form.
func (d *Dataset) Track(exp, cell, name string) (Track, bool) {
	for _, tr := range d.Tracks(exp, cell) {
		if tr.Name == name {
			return tr, true
		}
	}
	return Track{}, false
}

// DatasetOf projects a live run into the renderer's input — the same
// values WriteArtifacts prints into cells.csv and series.csv.
func DatasetOf(res experiments.RunResult) *Dataset {
	d := NewDataset()
	for _, e := range res.Experiments {
		for _, row := range e.Report.Rows {
			for _, m := range row.Metrics {
				d.AddMetric(e.Name, row.Cell, m.Name, m.Value)
			}
		}
		for _, sr := range e.Report.Series {
			for _, tr := range sr.Tracks {
				for _, p := range tr.Points {
					d.AddSeriesPoint(e.Name, sr.Cell, tr.Name, tr.Unit, p.T, p.V)
				}
			}
		}
		for _, fr := range e.Report.Forensics {
			d.AddForensic(e.Name, fr.Cell, "all", "queries", float64(fr.Table.Queries))
			for _, row := range fr.Table.Rows {
				for _, m := range experiments.ForensicsStats(row.Record) {
					d.AddForensic(e.Name, fr.Cell, row.Quantile, m.Name, m.Value)
				}
			}
		}
	}
	return d
}

// LoadDir parses the committed artifacts of one results directory:
// cells.csv (required) plus series.csv and forensics.csv (optional —
// older artifacts lack them). Values parse back to the exact
// in-memory floats, so figures rendered from disk match figures
// rendered from a live run byte for byte.
func LoadDir(dir string) (*Dataset, error) {
	d := NewDataset()
	cells, err := os.ReadFile(filepath.Join(dir, "cells.csv"))
	if err != nil {
		return nil, err
	}
	if err := parseCSV(string(cells), "experiment,cell,metric,value", 4, func(f []string) error {
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return err
		}
		d.AddMetric(f[0], f[1], f[2], v)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("report: %s: %w", filepath.Join(dir, "cells.csv"), err)
	}

	series, err := os.ReadFile(filepath.Join(dir, "series.csv"))
	if err != nil {
		if os.IsNotExist(err) {
			return d, nil
		}
		return nil, err
	}
	if err := parseCSV(string(series), "experiment,cell,series,unit,t,value", 6, func(f []string) error {
		t, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(f[5], 64)
		if err != nil {
			return err
		}
		d.AddSeriesPoint(f[0], f[1], f[2], f[3], t, v)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("report: %s: %w", filepath.Join(dir, "series.csv"), err)
	}

	forensics, err := os.ReadFile(filepath.Join(dir, "forensics.csv"))
	if err != nil {
		if os.IsNotExist(err) {
			return d, nil
		}
		return nil, err
	}
	if err := parseCSV(string(forensics), "experiment,cell,quantile,stat,value", 5, func(f []string) error {
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return err
		}
		d.AddForensic(f[0], f[1], f[2], f[3], v)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("report: %s: %w", filepath.Join(dir, "forensics.csv"), err)
	}
	return d, nil
}

// parseCSV walks the artifact CSVs. They are plain comma-separated —
// no field the repo emits contains a comma or quote — so a split
// suffices.
func parseCSV(data, header string, fields int, row func([]string) error) error {
	lines := strings.Split(data, "\n")
	if len(lines) == 0 || strings.TrimRight(lines[0], "\r") != header {
		return fmt.Errorf("unexpected header (want %q)", header)
	}
	for i, line := range lines[1:] {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != fields {
			return fmt.Errorf("line %d: %d fields, want %d", i+2, len(f), fields)
		}
		if err := row(f); err != nil {
			return fmt.Errorf("line %d: %w", i+2, err)
		}
	}
	return nil
}
