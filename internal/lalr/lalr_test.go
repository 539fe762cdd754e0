package lalr

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// tok makes a test token of tbl's terminal sym; a name tbl does not
// know gets a number past its terminals.
func tok(tbl *Table, sym string) Token {
	id, ok := tbl.Term(sym)
	if !ok {
		id = 1 << 20
	}
	return Token{Sym: id, Text: sym, Line: 1}
}

// lexNums builds a calculator token stream (unambiguousCalc's terminal
// numbers) from a tiny arithmetic string where every digit is a num
// token and everything else is an operator symbol. A num's value is its
// digit, which the num action reads from Text.
func lexNums(s string) []Token { return lexWith(calcTable(), s) }

// calcTable is the calculator's table, built once for lexNums.
var calcTable = sync.OnceValue(func() *Table {
	tbl, err := Build(calcGrammar())
	if err != nil {
		panic(err)
	}
	return tbl
})

// lexWith is lexNums over tbl's terminal numbers.
func lexWith(tbl *Table, s string) []Token {
	var toks []Token
	col := int32(0)
	for _, r := range s {
		col++
		name := string(r)
		switch {
		case r >= '0' && r <= '9':
			name = "num"
		case r == ' ':
			continue
		}
		t := tok(tbl, name)
		t.Text, t.Col = string(r), col
		toks = append(toks, t)
	}
	return toks
}

// binop builds the usual arithmetic action.
func binop(f func(a, b float64) float64) func(any, []any) any {
	return func(_ any, v []any) any { return f(v[0].(float64), v[2].(float64)) }
}

func num(_ any, v []any) any { return float64(v[0].(*Token).Text[0] - '0') }

// unambiguousCalc builds the textbook expr/term/factor grammar's table.
func unambiguousCalc(t *testing.T) *Table {
	t.Helper()
	tbl, err := Build(calcGrammar())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Conflicts) != 0 {
		t.Fatalf("unambiguous grammar should have no conflicts: %v", tbl.Conflicts)
	}
	return tbl
}

// calcGrammar is the textbook expr/term/factor grammar.
func calcGrammar() *Grammar {
	g := NewGrammar("expr")
	g.Rule("expr : expr + term", binop(func(a, b float64) float64 { return a + b }))
	g.Rule("expr : expr - term", binop(func(a, b float64) float64 { return a - b }))
	g.Rule("expr : term", nil)
	g.Rule("term : term * factor", binop(func(a, b float64) float64 { return a * b }))
	g.Rule("term : term / factor", binop(func(a, b float64) float64 { return a / b }))
	g.Rule("term : factor", nil)
	g.Rule("factor : ( expr )", func(_ any, v []any) any { return v[1] })
	g.Rule("factor : num", num)
	return g
}

func evalWith(t *testing.T, tbl *Table, input string) float64 {
	t.Helper()
	v, err := tbl.Parse(lexNums(input), nil)
	if err != nil {
		t.Fatalf("parse %q: %v", input, err)
	}
	return v.(float64)
}

func TestUnambiguousCalculator(t *testing.T) {
	tbl := unambiguousCalc(t)
	cases := map[string]float64{
		"1":           1,
		"1+2":         3,
		"2*3+4":       10,
		"2+3*4":       14,
		"(2+3)*4":     20,
		"8-2-3":       3, // left associative
		"8/2/2":       2,
		"1+2*(3+4)-5": 10,
	}
	for in, want := range cases {
		if got := evalWith(t, tbl, in); got != want {
			t.Errorf("%q = %v, want %v", in, got, want)
		}
	}
}

// ambiguousSum is e : e + e | num, which has a shift/reduce conflict.
func ambiguousSum() *Grammar {
	g := NewGrammar("e")
	g.Rule("e : e + e", binop(func(a, b float64) float64 { return a + b }))
	g.Rule("e : num", num)
	return g
}

func TestUnresolvedConflictFailsBuild(t *testing.T) {
	// Ambiguous grammar with no precedence: Build must fail but still
	// return a usable table with yacc default resolutions.
	tbl, err := Build(ambiguousSum())
	if err == nil {
		t.Fatal("unresolved shift/reduce must fail Build")
	}
	if tbl == nil {
		t.Fatal("Build must return the default-resolved table alongside the error")
	}
	// Default resolution is shift -> right associativity.
	v, perr := tbl.Parse(lexWith(tbl, "1+2+3"), nil)
	if perr != nil || v.(float64) != 6 {
		t.Fatalf("default-resolved parse: %v, %v", v, perr)
	}
}

// twoReductions reduces x to a or b: a reduce/reduce conflict.
func twoReductions() *Grammar {
	g := NewGrammar("s")
	g.Rule("s : a", nil)
	g.Rule("s : b", nil)
	g.Rule("a : x", func(_ any, v []any) any { return "a" })
	g.Rule("b : x", func(_ any, v []any) any { return "b" })
	return g
}

func TestReduceReduceConflict(t *testing.T) {
	tbl, err := Build(twoReductions())
	if err == nil || !strings.Contains(err.Error(), "reduce/reduce") {
		t.Fatalf("want reduce/reduce failure, got %v", err)
	}
	// yacc default: earlier production wins.
	v, perr := tbl.Parse([]Token{tok(tbl, "x")}, nil)
	if perr != nil || v != "a" {
		t.Fatalf("default resolution should pick the earlier rule: %v, %v", v, perr)
	}
}

// countedList is list : list item | <empty>, which counts items.
func countedList() *Grammar {
	g := NewGrammar("list")
	g.Rule("list : list item", func(_ any, v []any) any { return v[0].(int) + 1 })
	g.Rule("list :", func(_ any, v []any) any { return 0 })
	g.Rule("item : x", nil)
	return g
}

func TestEpsilonProductions(t *testing.T) {
	tbl, err := Build(countedList())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 5; n++ {
		toks := make([]Token, n)
		for i := range toks {
			toks[i] = tok(tbl, "x")
		}
		v, err := tbl.Parse(toks, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if v.(int) != n {
			t.Fatalf("n=%d: counted %v", n, v)
		}
	}
}

// lalrNotSLR is S -> L = R | R;  L -> * R | id;  R -> L.
func lalrNotSLR() *Grammar {
	g := NewGrammar("s")
	g.Rule("s : l = r", func(_ any, v []any) any { return "assign" })
	g.Rule("s : r", func(_ any, v []any) any { return "rvalue" })
	g.Rule("l : * r", nil)
	g.Rule("l : id", nil)
	g.Rule("r : l", nil)
	return g
}

// TestLALRButNotSLR uses the textbook grammar that SLR(1) cannot handle
// (it has a shift/reduce conflict on "=" under SLR) but LALR(1) can:
//
//	S -> L = R | R;  L -> * R | id;  R -> L
//
// Building it without conflicts proves the generator computes genuine
// LALR lookaheads rather than SLR FOLLOW sets.
func TestLALRButNotSLR(t *testing.T) {
	tbl, err := Build(lalrNotSLR())
	if err != nil {
		t.Fatalf("grammar is LALR(1); Build failed: %v", err)
	}
	if len(tbl.Conflicts) != 0 {
		t.Fatalf("LALR(1) grammar must build conflict-free, got %v", tbl.Conflicts)
	}
	v, err := tbl.Parse([]Token{tok(tbl, "*"), tok(tbl, "id"), tok(tbl, "="), tok(tbl, "id")}, nil)
	if err != nil || v != "assign" {
		t.Fatalf("*id = id: %v, %v", v, err)
	}
	v, err = tbl.Parse([]Token{tok(tbl, "id")}, nil)
	if err != nil || v != "rvalue" {
		t.Fatalf("id: %v, %v", v, err)
	}
}

func TestParseErrors(t *testing.T) {
	tbl := unambiguousCalc(t)

	_, err := tbl.Parse(lexNums("1+"), nil)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Token.Sym != EOF {
		t.Fatalf("failing token should be EOF, got %q", pe.Token.Sym)
	}
	if len(pe.Expected) == 0 {
		t.Fatal("parse error should list expected terminals")
	}
	if !strings.Contains(pe.Error(), "end of input") {
		t.Fatalf("EOF error message: %q", pe.Error())
	}

	_, err = tbl.Parse(lexNums("1 2"), nil)
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Token.Col != 3 {
		t.Fatalf("error column = %d, want 3", pe.Token.Col)
	}
	if !strings.Contains(pe.Error(), "line 1") {
		t.Fatalf("error message should carry the location: %q", pe.Error())
	}
}

func TestUnknownTerminalRejected(t *testing.T) {
	tbl := unambiguousCalc(t)
	_, err := tbl.Parse([]Token{tok(tbl, "WAT")}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown terminal") {
		t.Fatalf("unknown terminal must be rejected: %v", err)
	}
}

// pairThenEmpty is s : pair opt; pair : x y; opt : <empty>, all nil
// actions.
func pairThenEmpty() *Grammar {
	g := NewGrammar("s")
	g.Rule("s : pair opt", nil)
	g.Rule("pair : x y", nil)
	g.Rule("opt :", nil)
	return g
}

// onlyEmpty is s : opt; opt : <empty>, nil actions.
func onlyEmpty() *Grammar {
	g := NewGrammar("s")
	g.Rule("s : opt", nil)
	g.Rule("opt :", nil)
	return g
}

// TestParseTokensErrorPaths pins Parse's error paths over a token slice:
// an unknown terminal after valid input, the sorted Expected lists the
// map-keyed table produced before the rows were dense, and nil actions
// yielding their first child (or nothing for an empty right side).
func TestParseTokensErrorPaths(t *testing.T) {
	tbl := unambiguousCalc(t)
	_, err := tbl.Parse(append(lexNums("1+"), tok(tbl, "WAT")), nil)
	var pe *ParseError
	if err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), "unknown terminal 1048576") {
		t.Fatalf("unknown terminal after valid input: %v", err)
	}

	for in, want := range map[string]string{
		"1+":  "( num",
		"1 2": "$end ) * + - /",
	} {
		_, err := tbl.Parse(lexNums(in), nil)
		if !errors.As(err, &pe) {
			t.Fatalf("%q: want *ParseError, got %v", in, err)
		}
		if got := strings.Join(pe.Expected, " "); got != want {
			t.Errorf("%q: expected %q, want %q", in, got, want)
		}
	}

	tbl, err = Build(pairThenEmpty())
	if err != nil {
		t.Fatal(err)
	}
	toks := []Token{tok(tbl, "x"), tok(tbl, "y")}
	v, err := tbl.Parse(toks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != &toks[0] {
		t.Fatalf("nil actions should pass up the first child, the x token itself: got %#v", v)
	}
	if tbl, err = Build(onlyEmpty()); err != nil {
		t.Fatal(err)
	}
	if v, err := tbl.Parse(nil, nil); err != nil || v != nil {
		t.Fatalf("nil action over an empty right side: %#v, %v; want nil", v, err)
	}
}

func TestGrammarValidation(t *testing.T) {
	g := NewGrammar("s")
	if _, err := Build(g); err == nil {
		t.Error("empty grammar must fail")
	}

	g = NewGrammar("s")
	g.Rule("nonsense", nil) // malformed
	g.Rule("s : x", nil)
	if _, err := Build(g); err == nil {
		t.Error("malformed rule must fail")
	}

	g = NewGrammar("s")
	g.Rule("t : x", nil) // start symbol never defined
	if _, err := Build(g); err == nil {
		t.Error("missing start symbol must fail")
	}

	g = NewGrammar("s")
	g.Rule("s : "+end, nil)
	if _, err := Build(g); err == nil {
		t.Error("reserved EOF symbol in a rule must fail")
	}

	g = NewGrammar("s")
	g.Rule("lhs with spaces : x", nil)
	if _, err := Build(g); err == nil {
		t.Error("multi-word LHS must fail")
	}
}

func TestProdString(t *testing.T) {
	p := &Prod{Lhs: "e", Rhs: []string{"e", "+", "t"}}
	if p.String() != "e -> e + t" {
		t.Fatalf("prod string: %q", p.String())
	}
	if (&Prod{Lhs: "e"}).String() != "e -> <empty>" {
		t.Fatal("empty prod string wrong")
	}
}

func TestTableIntrospection(t *testing.T) {
	tbl := unambiguousCalc(t)
	if tbl.States() < 10 {
		t.Fatalf("calculator automaton suspiciously small: %d states", tbl.States())
	}
}

// oneToken is s : num with a nil action, whose value is the *Token.
func oneToken() *Grammar {
	g := NewGrammar("s")
	g.Rule("s : num", nil)
	return g
}

func TestDefaultActionPassesFirstValue(t *testing.T) {
	tbl, err := Build(oneToken())
	if err != nil {
		t.Fatal(err)
	}
	v, err := tbl.Parse(lexWith(tbl, "7"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tokv, ok := v.(*Token); !ok || tokv.Text != "7" {
		t.Fatalf("default action should pass through the token, got %#v", v)
	}
}

// TestActionsSeeParseEnv checks that every action receives the env its
// Parse call was given, so two parses over one table keep separate
// state.
// envCounter counts its reductions of list and item through the *int
// env.
func envCounter() *Grammar {
	g := NewGrammar("list")
	count := func(env any, v []any) any { *env.(*int)++; return nil }
	g.Rule("list : list item", count)
	g.Rule("list :", nil)
	g.Rule("item : x", count)
	return g
}

func TestActionsSeeParseEnv(t *testing.T) {
	tbl, err := Build(envCounter())
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	if _, err := tbl.Parse([]Token{tok(tbl, "x"), tok(tbl, "x")}, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Parse([]Token{tok(tbl, "x")}, &b); err != nil {
		t.Fatal(err)
	}
	if a != 4 || b != 2 {
		t.Fatalf("reductions seen through env: %d and %d, want 4 and 2", a, b)
	}
}

func TestReport(t *testing.T) {
	tbl := unambiguousCalc(t)
	rep := tbl.Report()
	for _, frag := range []string{
		"Grammar",
		"Rule 0   $accept -> expr",
		"Rule 1   expr -> expr + term",
		"Terminals:",
		"Nonterminals:",
		"state 0",
		"shift, go to state",
		"reduce using rule",
		"accept",
		"go to state",
	} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	if strings.Contains(rep, "Conflicts") {
		t.Error("unambiguous grammar must not report conflicts")
	}

	// An ambiguous grammar's table reports its conflicts.
	tbl2, err := Build(ambiguousNil())
	if err == nil {
		t.Fatal("ambiguous grammar must fail Build")
	}
	if !strings.Contains(tbl2.Report(), "Conflicts: 1\n    state") {
		t.Errorf("report should list the conflict:\n%s", tbl2.Report())
	}
}

// ambiguousNil is ambiguousSum with nil actions.
func ambiguousNil() *Grammar {
	g := NewGrammar("e")
	g.Rule("e : e + e", nil)
	g.Rule("e : num", nil)
	return g
}

// testGrammars lists every grammar this file builds, by name.
func testGrammars() []struct {
	Name  string
	Build func() *Grammar
} {
	return []struct {
		Name  string
		Build func() *Grammar
	}{
		{"calc", calcGrammar}, {"ambiguousSum", ambiguousSum}, {"ambiguousNil", ambiguousNil},
		{"twoReductions", twoReductions}, {"countedList", countedList}, {"lalrNotSLR", lalrNotSLR},
		{"pairThenEmpty", pairThenEmpty}, {"onlyEmpty", onlyEmpty}, {"oneToken", oneToken},
		{"envCounter", envCounter},
	}
}
