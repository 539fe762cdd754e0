package expr

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGrammarReportGolden pins the expression language's LALR(1) table —
// what `dfg-fuse -grammar` prints — byte for byte, so a change to how the
// table is stored cannot change the table. Regenerate with
// `go test ./internal/expr -run TestGrammarReportGolden -update`.
func TestGrammarReportGolden(t *testing.T) {
	got, err := GrammarReport()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "grammar.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("grammar report drifted from %s (%d bytes, golden %d); diff `go run ./cmd/dfg-fuse -grammar` against it", path, len(got), len(want))
	}
}
