package perfiso_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickChecksAreSeeded parses the module's _test.go files and
// fails on a quick.Check or quick.CheckEqual call whose config is not a
// quick.Config literal that sets Rand. With a nil config, or a nil
// Rand, testing/quick seeds its generator from the wall clock, so every
// run tests different inputs and a failure cannot be replayed.
// perfiso-lint loads only non-test files, so no lint rule sees these
// calls. Directories holding their own go.mod (bench) are other modules
// and are skipped, as are hidden directories and testdata.
func TestQuickChecksAreSeeded(t *testing.T) {
	fset := token.NewFileSet()
	calls := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		quick := quickImportName(f)
		if quick == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != quick {
				return true
			}
			// The config is Check's second argument and CheckEqual's third.
			arg := map[string]int{"Check": 1, "CheckEqual": 2}[sel.Sel.Name]
			if arg == 0 {
				return true
			}
			calls++
			if arg >= len(call.Args) || !setsRand(call.Args[arg]) {
				t.Errorf("%s: quick.%s needs a &quick.Config{...} that sets Rand, such as rand.New(rand.NewSource(1))",
					fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("found no quick.Check calls; the walk did not reach the module's tests")
	}
	t.Logf("%d quick.Check and quick.CheckEqual calls, all seeded", calls)
}

// quickImportName returns the name f imports testing/quick under, or
// "" when it does not import it by name.
func quickImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != `"testing/quick"` {
			continue
		}
		if imp.Name == nil {
			return "quick"
		}
		return imp.Name.Name
	}
	return ""
}

// setsRand reports whether e is a quick.Config literal, or its address,
// whose Rand field is set to something other than nil.
func setsRand(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Rand" {
			v, isIdent := kv.Value.(*ast.Ident)
			return !isIdent || v.Name != "nil"
		}
	}
	return false
}
