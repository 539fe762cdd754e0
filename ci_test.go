package dfg

import (
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

// ciPatternMisses reads every `go test` command of a workflow and
// returns each alternative of a -run, -fuzz or -bench pattern that
// names no function of the packages the command tests: -run pieces must
// match a Test or Fuzz function, -fuzz pieces a Fuzz function and
// -bench pieces a Benchmark function. "^$" selects nothing on purpose
// and is skipped.
func ciPatternMisses(workflow, root string) ([]string, error) {
	var misses []string
	for _, line := range strings.Split(workflow, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		args := strings.Fields(strings.ReplaceAll(cmd, "'", ""))
		var pkgs, runs, fuzzes, benches []string
		for i, a := range args {
			switch {
			case strings.HasPrefix(a, "."):
				pkgs = append(pkgs, a)
			case a == "-run" && i+1 < len(args):
				runs = append(runs, args[i+1])
			case a == "-fuzz" && i+1 < len(args):
				fuzzes = append(fuzzes, args[i+1])
			case strings.HasPrefix(a, "-run="):
				runs = append(runs, strings.TrimPrefix(a, "-run="))
			case strings.HasPrefix(a, "-fuzz="):
				fuzzes = append(fuzzes, strings.TrimPrefix(a, "-fuzz="))
			case a == "-bench" && i+1 < len(args):
				benches = append(benches, args[i+1])
			case strings.HasPrefix(a, "-bench="):
				benches = append(benches, strings.TrimPrefix(a, "-bench="))
			}
		}
		names, err := testFuncs(root, pkgs)
		if err != nil {
			return nil, err
		}
		for _, c := range []struct {
			pats     []string
			prefixes []string
		}{{runs, []string{"Test", "Fuzz"}}, {fuzzes, []string{"Fuzz"}}, {benches, []string{"Benchmark"}}} {
			for _, pat := range c.pats {
				for _, piece := range strings.Split(pat, "|") {
					if piece == "^$" {
						continue
					}
					re, err := regexp.Compile(piece)
					if err != nil {
						return nil, err
					}
					if !anyMatch(re, names, c.prefixes) {
						misses = append(misses, piece+" in: go test "+strings.TrimSpace(cmd))
					}
				}
			}
		}
	}
	return misses, nil
}

// anyMatch reports whether re matches a name with one of the prefixes.
func anyMatch(re *regexp.Regexp, names, prefixes []string) bool {
	for _, name := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// testFuncs lists the top-level Test, Fuzz and Benchmark functions of the packages
// (".", "./dir" or "./...") under root.
func testFuncs(root string, pkgs []string) ([]string, error) {
	var names []string
	scan := func(dir string) error {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return err
		}
		for _, f := range files {
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	}
	for _, pkg := range pkgs {
		dir := filepath.Join(root, pkg)
		if tree, ok := strings.CutSuffix(pkg, "/..."); ok {
			err := filepath.WalkDir(filepath.Join(root, tree), func(path string, d fs.DirEntry, err error) error {
				if err != nil || !d.IsDir() {
					return err
				}
				if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
					return filepath.SkipDir
				}
				return scan(path)
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := scan(dir); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// TestCIRunPatternsMatch: every -run, -fuzz and -bench alternative in
// the CI workflow selects a test or benchmark of the packages its step
// names, so a renamed or deleted one cannot leave a filter silently
// selecting nothing.
func TestCIRunPatternsMatch(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	misses, err := ciPatternMisses(string(raw), ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range misses {
		t.Errorf("CI pattern selects no test: %s", m)
	}
}

// TestCIPatternScanFlagsDeadPiece: the scan reports the planted pieces
// that name no test or benchmark, and only those.
func TestCIPatternScanFlagsDeadPiece(t *testing.T) {
	const planted = "      run: go test -race -run 'Fault|NoSuchTestAnywhere' ./internal/ocl .\n" +
		"      run: go test -run=^$ -fuzz=FuzzFaultPlanNoLeak -fuzztime=15s ./internal/strategy\n" +
		"      run: go test -run='^$' -bench='ColdPrepare|TestColdPrepareAllocBudget' -benchtime=1x .\n"
	misses, err := ciPatternMisses(planted, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(misses) != 2 || !strings.HasPrefix(misses[0], "NoSuchTestAnywhere ") ||
		!strings.HasPrefix(misses[1], "TestColdPrepareAllocBudget ") {
		t.Fatalf("misses = %q, want the two planted pieces alone", misses)
	}
}
