package lintrules

import (
	"go/ast"
	"go/types"
)

// SeqContract protects the engine's (at, seq) FIFO tie-break from the
// outside. Only sim.Engine (and sim.Agenda and sim.Delay) make event
// order total, by stamping seq at schedule time; the engine's event
// queue is unexported, so the compiler already keeps other packages
// from building or mutating one. What it cannot stop is code that
// re-stamps sequencing fields of a sim type, which reconstructs event
// ordering without the contract that makes it reproducible — it must
// go through Engine.At/AtTimer/After/NewAgenda or a fixed-delay lane's
// Delay.After instead. (Holding a sim.Timer value, including the
// documented-valid zero Timer, is fine: Timers are opaque handles.)
var SeqContract = &Analyzer{
	Name: "seqcontract",
	Doc: "forbids re-stamping engine sequencing fields outside internal/sim; " +
		"the (at, seq) FIFO contract is only upheld by " +
		"sim.Engine/sim.Agenda/sim.Delay scheduling",
	InScope: func(pkgPath string) bool { return pkgPath != "perfiso/internal/sim" },
	Run:     runSeqContract,
}

const simPkgPath = "perfiso/internal/sim"

// seqContractFields are engine sequencing fields by (case-folded) name;
// assigning to one outside the engine re-stamps event order.
var seqContractFields = map[string]bool{
	"seq": true, "at": true, "slot": true,
}

func runSeqContract(pass *Pass) error {
	pass.inspect(func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			s, ok := pass.TypesInfo.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				continue
			}
			obj := s.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == simPkgPath && seqContractFields[lower(sel.Sel.Name)] {
				pass.Reportf(sel.Pos(), "re-stamping sim sequencing field %s outside internal/sim breaks the (at, seq) FIFO contract", sel.Sel.Name)
			}
		}
		return true
	})
	return nil
}

// lower folds an ASCII identifier's first rune for field matching.
func lower(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'A' && b[0] <= 'Z' {
		b[0] += 'a' - 'A'
	}
	return string(b)
}
