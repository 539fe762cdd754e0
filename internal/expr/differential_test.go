package expr

import (
	"testing"

	"dfg/internal/lalr"
	"dfg/internal/lalr/lalrtest"
	"dfg/internal/vortex"
)

// diagnosticInputs are the texts the diagnostics tests reject (or
// locate an error in): TestParseErrors, TestComponentIndexErrors,
// TestRelationalErrors, TestSyntaxErrorCaret and TestSyntaxErrorAtEOF.
var diagnosticInputs = []string{
	"", "a = ", "a = b +", "a = (b", "a = b[", "a = b[x]", "a = b[9]", "a = b[1.5]",
	"a = $b", "a = f(,)", "= b", "a = 1e",
	"du = grad3d(u, dims, x, y, z)\nr = du[7]", "du = grad3d(u, dims, x, y, z)\nr = du[1.5]",
	"r = a[0.50] + b[9]", "r = a[9] + b[0.5]",
	"a = u > v > w", "a = if (u) then (v)", "a = u ! v", "a = if > 2",
	"a = u + v\nb = u * )", "a = u +",
}

// TestParseMatchesReference runs the expression table's Parse and the
// reference driver (lalrtest: the canonical loop, one iteration per
// reduction, no unit chains followed in one step) over the tokens of
// the paper's expressions, FuzzParse's seeds and the diagnostics
// tests' inputs, and of every prefix of each, and requires the same
// tree, the same semantic error and the same syntax error — the same
// Token and Expected list.
func TestParseMatchesReference(t *testing.T) {
	tbl, err := parseTable()
	if err != nil {
		t.Fatal(err)
	}
	actions := []func(any, []any) any{nil} // rule 0 is the augmented start rule
	rules(func(_ string, action func(any, []any) any) { actions = append(actions, action) })
	ref, err := lalrtest.New(tbl.Report(), actions)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []string
	for _, e := range vortex.Expressions() {
		inputs = append(inputs, e.Text)
	}
	inputs = append(append(inputs, parseSeeds...), diagnosticInputs...)
	parses, syntaxErrors := 0, 0
	for _, in := range inputs {
		for end := 0; end <= len(in); end++ {
			toks, err := lex(in[:end], nil)
			if err != nil {
				continue // the lexer rejects it before either driver runs
			}
			a1, a2 := &arena{}, &arena{}
			v1, err1 := tbl.Parse(toks, a1)
			v2, err2 := ref.Parse(toks, a2)
			if d := lalrtest.Diff(v1, err1, v2, err2); d != "" {
				t.Fatalf("%q: Parse and the reference disagree: %s", in[:end], d)
			}
			if d := lalrtest.Diff(nil, a1.err, nil, a2.err); d != "" {
				t.Fatalf("%q: semantic errors disagree: %s", in[:end], d)
			}
			if _, ok := err1.(*lalr.ParseError); ok {
				syntaxErrors++
			}
			parses++
		}
	}
	t.Logf("%d token streams agree, %d of them syntax errors", parses, syntaxErrors)
}
