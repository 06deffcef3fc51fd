package lintrules

import (
	"go/ast"
	"go/types"
)

// SeqContract protects the engine's (at, seq) FIFO tie-break from the
// outside. sim.Heap's pop order between equal elements is explicitly
// unspecified; only sim.Engine (and sim.Agenda) make event order total
// by stamping seq at schedule time. Code outside internal/sim that
// builds its own sim.Heap, pushes into one, or re-stamps sequencing
// fields is reconstructing event ordering without the contract that
// makes it reproducible — it must go through Engine.At/AtTimer/
// After/NewAgenda or a fixed-delay lane's Delay.After instead.
// (Holding a sim.Timer value, including the documented-valid zero
// Timer, is fine: Timers are opaque handles.)
var SeqContract = &Analyzer{
	Name: "seqcontract",
	Doc: "forbids constructing or mutating sim.Heap and re-stamping engine " +
		"sequencing fields outside internal/sim; the (at, seq) FIFO contract " +
		"is only upheld by sim.Engine/sim.Agenda/sim.Delay scheduling",
	InScope: func(pkgPath string) bool { return pkgPath != "perfiso/internal/sim" },
	Run:     runSeqContract,
}

const simPkgPath = "perfiso/internal/sim"

// seqContractMutators are the Heap methods that change or depend on
// heap order. Len is harmless bookkeeping and stays allowed.
var seqContractMutators = map[string]bool{
	"Push": true, "Pop": true, "Min": true, "Reset": true, "Grow": true,
}

// seqContractFields are engine sequencing fields by (case-folded) name;
// assigning to one outside the engine re-stamps event order.
var seqContractFields = map[string]bool{
	"seq": true, "at": true, "slot": true,
}

func runSeqContract(pass *Pass) error {
	pass.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isSimHeap(pass.TypesInfo.TypeOf(n)) {
				pass.Reportf(n.Pos(), "sim.Heap constructed outside internal/sim; schedule through sim.Engine so the (at, seq) FIFO contract holds")
			}
		case *ast.ValueSpec:
			if n.Type != nil && isSimHeap(pass.TypesInfo.TypeOf(n.Type)) {
				pass.Reportf(n.Type.Pos(), "sim.Heap declared outside internal/sim; schedule through sim.Engine so the (at, seq) FIFO contract holds")
			}
		case *ast.CallExpr:
			if isBuiltin(pass, n.Fun, "new") && len(n.Args) == 1 && isSimHeap(pass.TypesInfo.TypeOf(n.Args[0])) {
				pass.Reportf(n.Pos(), "sim.Heap constructed outside internal/sim; schedule through sim.Engine so the (at, seq) FIFO contract holds")
				break
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			s, ok := pass.TypesInfo.Selections[sel]
			if !ok || s.Kind() != types.MethodVal || !seqContractMutators[sel.Sel.Name] {
				break
			}
			if isSimHeap(s.Recv()) {
				pass.Reportf(n.Pos(), "sim.Heap.%s called outside internal/sim; heap order between equal elements is unspecified — schedule through sim.Engine", sel.Sel.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
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
		}
		return true
	})
	return nil
}

// isSimHeap reports whether t (possibly a pointer to, or an
// instantiation of) is sim.Heap.
func isSimHeap(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == simPkgPath && obj.Name() == "Heap"
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
