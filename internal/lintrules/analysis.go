package lintrules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is a deliberately small, stdlib-only reimplementation of
// the golang.org/x/tools/go/analysis API surface the perfiso analyzers
// need. The build environment is hermetic (no module proxy), so the
// real x/tools dependency cannot be pinned; the types below mirror its
// shape closely enough that migrating to the upstream framework is a
// mechanical rename if the dependency ever becomes available.

// An Analyzer is one static check. Run inspects a single type-checked
// package through its Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, //perfiso:allow
	// comments, and lint.conf entries. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description: what the rule forbids and why
	// the determinism contract needs it.
	Doc string

	// InScope reports whether the analyzer applies to the package with
	// the given import path. A nil InScope means every package is in
	// scope. lint.conf allowlists are applied on top by the driver.
	InScope func(pkgPath string) bool

	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives every diagnostic; the driver wires in suppression
	// and collection. Never nil during Run.
	report func(token.Pos, string)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// inspect walks every file in the pass in source order, calling fn for
// each node. Returning false prunes the subtree.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// A Finding is one reported diagnostic, resolved to a position.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// sortFindings orders findings for deterministic output.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Analyzers returns the full perfiso-lint analyzer set in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Walltime, GlobalRand, MapOrder, NoGoroutine, SeqContract}
}

// ByName resolves an analyzer by name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// prefixMatch reports whether path is pkg or lies under pkg/ for any
// entry in prefixes.
func prefixMatch(prefixes []string, path string) bool {
	for _, p := range prefixes {
		if path == p {
			return true
		}
		if len(path) > len(p) && path[:len(p)] == p && path[len(p)] == '/' {
			return true
		}
	}
	return false
}

// cellPackages are the packages whose code executes inside simulation
// cells: everything a cell's result is computed from must be a pure
// function of the cell seed, so goroutines and unbuffered channel
// handoffs are banned here outright (concurrency belongs to the
// experiments pool, which parallelizes across whole cells, never
// inside one).
var cellPackages = []string{
	"perfiso/internal/sim",
	"perfiso/internal/core",
	"perfiso/internal/cpumodel",
	"perfiso/internal/diskmodel",
	"perfiso/internal/memmodel",
	"perfiso/internal/netmodel",
	"perfiso/internal/indexserve",
	"perfiso/internal/workload",
	"perfiso/internal/cluster",
	"perfiso/internal/harvest",
	"perfiso/internal/experiments",
	"perfiso/internal/isolation",
	"perfiso/internal/node",
	"perfiso/internal/osmodel",
	"perfiso/internal/autopilot",
	"perfiso/internal/stats",
}

// inCellPackages is the InScope predicate for analyzers confined to
// cell-executing code.
func inCellPackages(pkgPath string) bool {
	return prefixMatch(cellPackages, pkgPath)
}
