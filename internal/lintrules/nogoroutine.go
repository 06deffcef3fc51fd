package lintrules

import (
	"go/ast"
	"go/types"
)

// NoGoroutine forbids `go` statements and unbuffered channels inside
// cell-execution packages. A cell is a single-threaded deterministic
// computation: the scheduler's interleaving of goroutines is
// nondeterministic, and an unbuffered channel is a synchronization
// handoff that only makes sense between goroutines. Concurrency lives
// one layer up — the experiments pool runs whole cells in parallel,
// which is safe precisely because no concurrency leaks inside one. The
// experiments pool itself carries //perfiso:allow nogoroutine
// annotations: it is the boundary.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc: "forbids go statements and unbuffered channel construction in " +
		"cell-execution packages; concurrency belongs to the pool layer",
	InScope: inCellPackages,
	Run:     runNoGoroutine,
}

func runNoGoroutine(pass *Pass) error {
	pass.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Go, "go statement inside cell-execution code; cells are single-threaded — move concurrency to the pool layer, or annotate //perfiso:allow nogoroutine <reason>")
		case *ast.CallExpr:
			if !isBuiltin(pass, n.Fun, "make") || len(n.Args) == 0 {
				break
			}
			t := pass.TypesInfo.TypeOf(n.Args[0])
			if t == nil {
				break
			}
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				break
			}
			if len(n.Args) == 1 {
				pass.Reportf(n.Pos(), "unbuffered channel inside cell-execution code; a blocking handoff implies goroutines — move it to the pool layer, or annotate //perfiso:allow nogoroutine <reason>")
				break
			}
			if tv, ok := pass.TypesInfo.Types[n.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
				pass.Reportf(n.Pos(), "make(chan, 0) is an unbuffered channel; see nogoroutine")
			}
		}
		return true
	})
	return nil
}
