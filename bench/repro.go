package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/report"
	"perfiso/internal/shard"
)

// goldenSeed is the seed the committed results/test and RESULTS.md
// were generated at; only runs at this seed compare against them.
const goldenSeed = 2017

// goldenArtifacts are the results/test files compared byte for byte
// (figures/*.svg are listed from the golden directory).
var goldenArtifacts = []string{"summary.json", "cells.csv", "series.csv", "forensics.csv"}

// reproWorkload runs what `perfiso-repro -scale test` runs: the whole
// registry on the pool, then the artifacts, figures and report, into a
// directory under cfg.work.
func reproWorkload(name string, base experiments.ScaleSpec) workload {
	return workload{name: name, setup: func(cfg config, sp *spanLog) (job, error) {
		spec := base
		spec.Single.Seed = cfg.seed
		spec.Cluster.Seed = cfg.seed
		spec.Harvest.Seed = cfg.seed
		spec.BatchTrace.Seed = cfg.seed
		spec.Timeline.Seed = cfg.seed
		reg := experiments.DefaultRegistry()
		var m shard.Manifest
		var err error
		manifestS := sp.span("shard.Build", "manifest", -1, func() { m, err = shard.Build(reg, spec, "") })
		if err != nil {
			return nil, err
		}
		var goldens map[string][]byte
		if cfg.seed == goldenSeed && cfg.golden != "" {
			if goldens, err = loadGoldens(cfg.golden, spec.Name); err != nil {
				return nil, err
			}
		}
		return func(sp *spanLog) pass {
			p := runRepro(reg, spec, m, goldens, cfg.work, sp)
			p.sums["shard.manifest_s"] = manifestS
			return p
		}, nil
	}}
}

// loadGoldens reads the committed outputs, keyed by their path
// relative to the repository root.
func loadGoldens(root, scale string) (map[string][]byte, error) {
	dir := filepath.Join("results", scale)
	names := []string{"RESULTS.md"}
	for _, a := range goldenArtifacts {
		names = append(names, filepath.Join(dir, a))
	}
	figs, err := filepath.Glob(filepath.Join(root, dir, "figures", "*.svg"))
	if err != nil {
		return nil, err
	}
	for _, f := range figs {
		names = append(names, filepath.Join(dir, "figures", filepath.Base(f)))
	}
	out := map[string][]byte{}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(root, n))
		if err != nil {
			return nil, fmt.Errorf("loading goldens: %w", err)
		}
		out[n] = data
	}
	return out, nil
}

func runRepro(reg *experiments.Registry, spec experiments.ScaleSpec, m shard.Manifest,
	goldens map[string][]byte, work string, sp *spanLog) pass {
	p := newPass()
	start := time.Now() //perfiso:allow walltime benchmark host timing
	res, err := runRegistry(reg, spec, sp)
	if err != nil {
		// No cell result survives a panic in the registry's pool.
		p.wall = time.Since(start).Seconds() //perfiso:allow walltime benchmark host timing
		for _, c := range m.Cells {
			p.op(c.Experiment+"/"+c.Cell, err)
		}
		p.seal()
		return p
	}
	res.ManifestHash = m.Hash

	dir, err := os.MkdirTemp(work, "repro-")
	if err == nil {
		defer os.RemoveAll(dir)
		err = writeRepro(dir, res, &p, sp)
	}
	p.wall = time.Since(start).Seconds() //perfiso:allow walltime benchmark host timing
	p.op("write outputs", err)

	p.poolWall, p.busy = res.Elapsed.Seconds(), res.SequentialSeconds
	for _, t := range res.CellTimings {
		p.cellSec = append(p.cellSec, t.Seconds)
	}
	for _, ph := range res.Phases {
		if ph.Phase == "assemble" {
			p.sums["experiments.assemble_s"] = ph.Seconds
		}
	}
	for _, e := range res.Experiments {
		p.record(e.Report)
		for _, row := range e.Report.Rows {
			p.add(e.Name+"/"+row.Cell, cellOut{sim: rowSim(row), err: checkRow(row)})
		}
		for _, f := range e.Report.Forensics {
			bm := map[string]float64{"indexserve.measured_queries": float64(f.Table.Queries)}
			addForensics(bm, f.Table)
			p.sim = append(p.sim, bm)
		}
	}
	if goldens != nil && err == nil {
		for _, name := range sortedKeys(goldens) {
			got, rerr := os.ReadFile(filepath.Join(dir, name))
			if rerr == nil && !bytes.Equal(got, goldens[name]) {
				rerr = fmt.Errorf("differs from the committed copy")
			}
			p.op("golden "+name, rerr)
		}
		// A figure the run renders but the goldens lack is drift too.
		made, _ := filepath.Glob(filepath.Join(dir, "results", spec.Name, "figures", "*.svg"))
		for _, f := range made {
			rel, _ := filepath.Rel(dir, f)
			if _, ok := goldens[rel]; !ok {
				p.op("golden "+rel, fmt.Errorf("not in the committed figures"))
			}
		}
	}
	p.seal()
	return p
}

// runRegistry runs every experiment on the registry's pool, turning a
// cell panic (re-raised by the pool after it drains) into an error.
func runRegistry(reg *experiments.Registry, spec experiments.ScaleSpec, sp *spanLog) (res experiments.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	sp.span("experiments.Registry.Run", "all", -1, func() {
		res, err = reg.Run(experiments.RunOptions{Spec: spec, Workers: workers})
	})
	return res, err
}

// writeRepro writes what `perfiso-repro -scale test` writes, with the
// repository root replaced by dir, and parses the report's
// paper-vs-reproduced table.
func writeRepro(dir string, res experiments.RunResult, p *pass, sp *spanLog) error {
	results := filepath.Join(dir, "results", res.Spec.Name)
	var err error
	p.sums["experiments.write_artifacts_s"] = sp.span("experiments.WriteArtifacts", "all", -1, func() {
		err = experiments.WriteArtifacts(results, res)
	})
	if err != nil {
		return err
	}
	var figs []report.Figure
	p.sums["report.render_s"] = sp.span("report.Figures", "all", -1, func() {
		figs = report.Figures(report.DatasetOf(res))
		err = report.WriteFigures(results, figs)
	})
	if err != nil {
		return err
	}
	links := make([]experiments.FigureLink, len(figs))
	for i, f := range figs {
		links[i] = experiments.FigureLink{Name: f.Name, Title: f.Title,
			Path: "results/" + res.Spec.Name + "/figures/" + f.Name + ".svg"}
	}
	var md string
	p.sums["experiments.markdown_s"] = sp.span("experiments.RenderMarkdownWith", "all", -1, func() {
		md = experiments.RenderMarkdownWith(res, experiments.ReportOptions{Figures: links})
	})
	errPct, misses, ok := paperAccuracy(md)
	if !ok {
		return fmt.Errorf("report has no paper-vs-reproduced table")
	}
	p.sums["paper_err_pct"], p.sums["paper_misses"] = errPct, misses
	return os.WriteFile(filepath.Join(dir, "RESULTS.md"), []byte(md), 0o644)
}

// paperAccuracy reads the report's paper-vs-reproduced table: the
// median of its Rel. err column over rows that have one, and the
// number of rows whose Match is ✗. ok is false without the table.
func paperAccuracy(md string) (errPct, misses float64, ok bool) {
	_, table, ok := strings.Cut(md, "| Figure | Paper | Reproduced | Rel. err | Match |\n")
	if !ok {
		return 0, 0, false
	}
	var errs []float64
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cols := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cols) < 2 {
			continue
		}
		rel, match := cols[len(cols)-2], cols[len(cols)-1]
		if match == "✗" {
			misses++
		}
		if v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(rel, " ⚠"), "%"), 64); err == nil {
			errs = append(errs, v)
		}
	}
	return median(errs), misses, true
}

// rowSim maps one report row's metrics onto the benchmark's simulated
// metrics.
func rowSim(row experiments.Row) map[string]float64 {
	names := map[string]string{
		"drop_pct":      "drop_pct",
		"secondary_pct": "harvested_cpu_pct",
		"idle_pct":      "cpumodel.idle_pct",
		"primary_pct":   "cpumodel.primary_pct",
		"tasks_per_sec": "batch_tasks_per_s",
		"server_p99ms":  "cluster.server_p99_ms",
	}
	m := map[string]float64{}
	for _, x := range row.Metrics {
		if n, ok := names[x.Name]; ok {
			m[n] = x.Value
		}
	}
	return m
}

// checkRow requires finite metrics, ordered percentiles per latency
// layer, and a drop share within [0, 100].
func checkRow(row experiments.Row) error {
	v := map[string]float64{}
	for _, x := range row.Metrics {
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			return fmt.Errorf("%s not finite", x.Name)
		}
		v[x.Name] = x.Value
	}
	for _, prefix := range []string{"", "server_", "mla_", "tla_"} {
		p50, ok50 := v[prefix+"p50ms"]
		p95, ok95 := v[prefix+"p95ms"]
		p99, ok99 := v[prefix+"p99ms"]
		if ok50 && ok95 && ok99 && !(p50 <= p95 && p95 <= p99) {
			return fmt.Errorf("%spercentiles out of order: p50 %v p95 %v p99 %v", prefix, p50, p95, p99)
		}
	}
	if d, ok := v["drop_pct"]; ok && !(d >= 0 && d <= 100) {
		return fmt.Errorf("drop_pct %v outside [0, 100]", d)
	}
	return nil
}
