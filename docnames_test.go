package dfg

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docs are the documents whose backticked Go names must resolve.
// CHANGES.md and ROADMAP.md keep history and are exempt.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// goNames is what a module declares, read without type information:
// each package's top-level names, keyed by directory (the root by the
// module name), and each type's members — methods, struct fields,
// interface methods — keyed by package and by type name. Test files
// count, in the package of their directory.
type goNames struct {
	pkgs    map[string]map[string]bool   // package → top-level names
	types   map[string]map[string]bool   // "pkg.Type" → members
	byType  map[string][]map[string]bool // "Type" → members, one set per package declaring it
	metrics map[string]bool              // benchmark metric names ("ocl.writes", "codegen.fuse_us")
}

// scanGoNames parses every Go file under root, testdata aside.
func scanGoNames(root, module string) (*goNames, error) {
	g := &goNames{pkgs: map[string]map[string]bool{}, types: map[string]map[string]bool{},
		byType: map[string][]map[string]bool{}, metrics: map[string]bool{}}
	members := func(pkg, typ string) map[string]bool {
		key := pkg + "." + typ
		if g.types[key] == nil {
			g.types[key] = map[string]bool{}
			g.byType[typ] = append(g.byType[typ], g.types[key])
		}
		return g.types[key]
	}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(p))
		switch {
		case filepath.Dir(p) == filepath.Clean(root):
			pkg = module
		case f.Name.Name == "main": // unimportable; cmd/dfg must not pass for the root
			pkg = filepath.Dir(p)
		}
		if g.pkgs[pkg] == nil {
			g.pkgs[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					g.pkgs[pkg][d.Name.Name] = true
				} else {
					members(pkg, recvName(d.Recv.List[0].Type))[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							g.pkgs[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						g.pkgs[pkg][s.Name.Name] = true
						m := members(pkg, s.Name.Name)
						fields := &ast.FieldList{}
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						}
						for _, fld := range fields.List {
							for _, n := range fld.Names {
								m[n.Name] = true
							}
							if len(fld.Names) == 0 { // embedded
								m[recvName(fld.Type)] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The repo benchmark's metric names, and the stages its "_us"
	// metrics time, read like package selectors.
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, err
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		g.metrics[m.Name] = true
	}
	return g, nil
}

var (
	codeFence = regexp.MustCompile("(?ms)^```.*?^```")
	backticks = regexp.MustCompile("`[^`]+`")
	// dotted is a span's leading selector — pkg.Ident, Type.Member or
	// pkg.Type.Member — when a call, a space or the span's end follows.
	dotted   = regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:$|[( ])`)
	fileName = regexp.MustCompile(`\.(go|s|md|golden|json|jsonl|cl|csv|txt|ppm)$`)
)

// stale returns the backticked names in doc that name nothing: a
// module package's missing top-level name, or a missing member of a
// type the module declares. Names whose head is neither — variables,
// standard-library packages — are not checked.
func (g *goNames) stale(doc string) []string {
	var out []string
	for _, span := range backticks.FindAllString(codeFence.ReplaceAllString(doc, ""), -1) {
		span = strings.Trim(span, "`")
		m := dotted.FindStringSubmatch(span)
		if m == nil || fileName.MatchString(span) || g.metrics[span] || g.metrics[span+"_us"] {
			continue
		}
		head, name, member := m[1], m[2], m[3]
		if top, ok := g.pkgs[head]; ok {
			if !top[name] || member != "" && !g.types[head+"."+name][member] {
				out = append(out, strings.TrimRight(m[0], "( "))
			}
			continue
		}
		sets, isType := g.byType[head]
		if !isType {
			if ast.IsExported(head) { // a capitalised head that is no type: stale
				out = append(out, strings.TrimRight(m[0], "( "))
			}
			continue
		}
		found := false
		for _, set := range sets {
			found = found || set[name]
		}
		if !found {
			out = append(out, strings.TrimRight(m[0], "( "))
		}
	}
	return out
}

// TestDocNamesResolve fails on a backticked Go name in the docs that
// names nothing in the module: a renamed or deleted function, method,
// field or type the prose still cites.
func TestDocNamesResolve(t *testing.T) {
	g, err := scanGoNames(".", "dfg")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range g.stale(string(raw)) {
			t.Errorf("%s: `%s` names nothing in the module", doc, name)
		}
	}
}

// TestDocNameScanFlagsStaleNames plants stale names among live ones.
func TestDocNameScanFlagsStaleNames(t *testing.T) {
	g, err := scanGoNames(".", "dfg")
	if err != nil {
		t.Fatal(err)
	}
	doc := "Live: `Engine.Prepare`, `Prepared.EvalContext(ctx, n, in)`, `ocl.Env.Views`,\n" +
		"`strategy.Plan`, `Plan.Execute`, `Request.Opt`, `breaker.on(event, now)`,\n" +
		"`ocl.TestFaultOperationOrder`, `time.Sleep`, `res.Data`, `serve.go`, `ocl.writes`, `codegen.fuse`.\n" +
		"```\nx := `Gone.Fenced`\n```\n" +
		"Stale: `Engine.PrepareTraced`, `compile.PlanNetTraced`, `Tiered.Plan`, `ocl.Env.Gone`,\n" +
		"`dfg.listDevices` (cmd/dfg's, not the root package's).\n"
	got := strings.Join(g.stale(doc), ",")
	want := "Engine.PrepareTraced,compile.PlanNetTraced,Tiered.Plan,ocl.Env.Gone,dfg.listDevices"
	if got != want {
		t.Fatalf("scan flagged %q, want %q", got, want)
	}
}
