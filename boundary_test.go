package dfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// boundaryAllowlist names the directories, relative to the module root,
// whose non-test code may turn a spelled variant into a value. A trailing
// "/*" admits every subdirectory.
var boundaryAllowlist = map[string]string{
	".":                "the public API: Config, NewWith, WithOptLevel and WithStrategy",
	"internal/serve":   "Config and Request decode",
	"cmd/*":            "command-line flags",
	"internal/metrics": "iterates the paper's names",
	"benchmark":        "frozen; ROADMAP item 3",
}

// boundaryScan lists every reference, in non-test code outside the
// allowlisted directories, to the two functions that parse a variant's
// spelling: strategy.ForName and passes.ParseLevel — selectors through
// an import of their package, and bare calls inside it.
func boundaryScan(root, module string, allow map[string]string) ([]string, error) {
	parsers := map[string]string{ // import path → parsing function
		module + "/internal/strategy": "ForName",
		module + "/internal/passes":   "ParseLevel",
	}
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		if _, ok := allow[dir]; ok {
			return nil
		}
		if i := strings.Index(dir, "/"); i > 0 {
			if _, ok := allow[dir[:i]+"/*"]; ok {
				return nil
			}
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := map[string]string{} // package name in this file → its parsing function
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if fn, ok := parsers[ipath]; ok {
				name := path.Base(ipath)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = fn
			}
		}
		own := parsers[path.Join(module, dir)]
		report := func(pos token.Pos, fn string) {
			found = append(found, fmt.Sprintf("%s:%d: %s", path.Join(dir, filepath.Base(p)), fset.Position(pos).Line, fn))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && local[x.Name] == n.Sel.Name {
					report(n.Pos(), x.Name+"."+n.Sel.Name)
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && own != "" && id.Name == own {
					report(n.Pos(), id.Name)
				}
			}
			return true
		})
		return nil
	})
	slices.Sort(found)
	return found, err
}

// TestVariantNamesParsedAtBoundary fails when code below the API
// boundary parses a strategy or optimisation-level name: those arrive
// parsed, as strategy.Strategy and passes.Level values.
func TestVariantNamesParsedAtBoundary(t *testing.T) {
	found, err := boundaryScan(".", "dfg", boundaryAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s parses a variant name below the boundary", f)
	}
}

// TestBoundaryScanFlagsPlantedCall runs the scan over a fixture module
// whose compile package parses names itself (one call through an import
// alias) and whose strategy package calls its own parser; the serve and
// cmd packages' calls are allowed.
func TestBoundaryScanFlagsPlantedCall(t *testing.T) {
	found, err := boundaryScan(filepath.Join("testdata", "boundary"), "fixture", boundaryAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/compile/compile.go:10: strategy.ForName",
		"internal/compile/compile.go:11: p.ParseLevel",
		"internal/strategy/strategy.go:8: ForName",
	}
	if !slices.Equal(found, want) {
		t.Fatalf("scan found %q, want %q", found, want)
	}
}
