package dfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions and methods that may have
// no caller outside tests, each with the reason. Keys are spelled as
// surfaceScan reports them.
var surfaceAllowlist = map[string]string{
	"dfg.NewRectilinearMesh":        "public API",
	"dfg.Engine.CacheStats":         "public API",
	"dfg.Engine.EvalBatch":          "public API",
	"dfg.Engine.Fingerprint":        "public API",
	"dfg.Engine.WithStrategy":       "public API (README); serve derives views from parsed values",
	"dfg.Prepared.Degraded":         "public API",
	"dfg.Prepared.Fingerprint":      "public API",
	"dfg.PreparedBatch.Fingerprint": "public API",
	"dfg.PreparedBatch.Members":     "public API",

	"dfg/internal/mesh.Gradient3D":           "oracle, ROADMAP item 1",
	"dfg/internal/vortex.VorticityMagnitude": "oracle, ROADMAP item 1",
	"dfg/internal/vortex.Enstrophy":          "oracle, ROADMAP item 1",
	"dfg/internal/vortex.Divergence":         "oracle, ROADMAP item 1",
	"dfg/internal/vortex.Helicity":           "oracle, ROADMAP item 1",
	"dfg/internal/vortex.MaxAbs":             "oracle, ROADMAP item 1",

	"dfg/internal/vm.Program.NumPasses": "read by internal/strategy's tests, which cannot see vm's export_test.go",
	"dfg/internal/vm.Program.SlabLen":   "read by internal/strategy's tests, which cannot see vm's export_test.go",
}

// stdInterfaceMethods are method names that satisfy standard-library
// interfaces, so a call through the interface is invisible to a scan of
// this module.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
}

// surfaceScan returns every exported top-level function or method declared
// in a non-test file under root whose name is used by no other non-test
// code under root: a selector anywhere, or a bare identifier in the
// declaring package. Methods named by an interface in the module or by a
// standard interface are exempt, as are declarations in packages whose
// directory name ends in "test" (those still count as callers). Names are
// matched without type information, so a method is reached by any selector
// of its name.
func surfaceScan(root, module string) ([]string, error) {
	type decl struct {
		key, dir, name string
		method         bool
		pos            token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	selectors := map[string]bool{}
	bare := map[string]map[string][]token.Pos{} // dir → name → positions
	ifaceMethods := map[string]bool{}

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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := path.Join(module, filepath.ToSlash(rel))
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || strings.HasSuffix(dir, "test") {
				continue
			}
			key := dir + "." + fd.Name.Name
			if fd.Recv != nil {
				key = dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, dir, fd.Name.Name, fd.Recv != nil, fd.Name.Pos()})
		}
		if bare[dir] == nil {
			bare[dir] = map[string][]token.Pos{}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.Ident:
				bare[dir][n.Name] = append(bare[dir][n.Name], n.Pos())
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var unused []string
	for _, d := range decls {
		if d.method && (ifaceMethods[d.name] || stdInterfaceMethods[d.name]) {
			continue
		}
		if selectors[d.name] {
			continue
		}
		used := false
		if !d.method {
			for _, pos := range bare[d.dir][d.name] {
				if pos != d.pos {
					used = true
					break
				}
			}
		}
		if !used {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// TestEveryExportHasNonTestCaller fails when an exported function or method
// is reached only from tests. Delete it, move it into the tests that use
// it, or give it a caller; allowlist it only with a reason.
func TestEveryExportHasNonTestCaller(t *testing.T) {
	unused, err := surfaceScan(".", "dfg")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, key := range unused {
		found[key] = true
		if _, ok := surfaceAllowlist[key]; !ok {
			t.Errorf("%s is exported but only tests call it", key)
		}
	}
	for key := range surfaceAllowlist {
		if !found[key] {
			t.Errorf("allowlist entry %s has a non-test caller now (or is gone); drop the entry", key)
		}
	}
}

// TestSurfaceScanFlagsTestOnlyExport runs the scan over a fixture module
// whose one planted export is called only from its package's test.
func TestSurfaceScanFlagsTestOnlyExport(t *testing.T) {
	unused, err := surfaceScan(filepath.Join("testdata", "surface"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fixture/lib.OnlyTested"}
	if strings.Join(unused, ",") != strings.Join(want, ",") {
		t.Fatalf("scan flagged %v, want %v", unused, want)
	}
}
