package expr

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
	"dfg/internal/lalr"
	"dfg/internal/vortex"
)

// netCounts classifies a network's live nodes the way Table II counts
// device work: ops are elementwise + stencil filter invocations.
type netCounts struct {
	sources, consts, decomposes, ops int
}

func countNetwork(t *testing.T, net *dataflow.Network) netCounts {
	t.Helper()
	order, err := net.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var c netCounts
	for _, n := range order {
		switch n.Info().Class {
		case dataflow.ClassSource:
			c.sources++
		case dataflow.ClassConst:
			c.consts++
		case dataflow.ClassDecompose:
			c.decomposes++
		default:
			c.ops++
		}
	}
	return c
}

func TestParseSimpleAssignment(t *testing.T) {
	p, err := Parse("a = b + 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stmts) != 1 || p.Stmts[0].Name != "a" {
		t.Fatalf("program: %+v", p)
	}
	if got := p.String(); got != "a = (b + 1)" {
		t.Fatalf("normalized text: %q", got)
	}
}

func TestParsePrecedenceAndAssociativity(t *testing.T) {
	cases := map[string]string{
		"a + b * c":            "((a * b) + c)", // placeholder replaced below
		"a - b - c":            "((a - b) - c)",
		"a / b / c":            "((a / b) / c)",
		"(a + b) * c":          "((a + b) * c)",
		"-a * b":               "((-a) * b)",
		"a * -b":               "(a * (-b))",
		"sqrt(a)[2]":           "sqrt(a)[2]",
		"grad3d(u,d,x,y,z)[1]": "grad3d(u,d,x,y,z)[1]",
	}
	cases["a + b * c"] = "(a + (b * c))"
	for in, want := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := p.Stmts[0].X.String(); got != want {
			t.Errorf("%q parsed as %q, want %q", in, got, want)
		}
	}
}

func TestParseMultiStatement(t *testing.T) {
	p, err := Parse("a = b\n\n\nc = a * 2; d = c - b\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stmts) != 3 {
		t.Fatalf("want 3 statements, got %d", len(p.Stmts))
	}
	names := []string{"a", "c", "d"}
	for i, s := range p.Stmts {
		if s.Name != names[i] {
			t.Fatalf("stmt %d name %q want %q", i, s.Name, names[i])
		}
	}
}

func TestParseComments(t *testing.T) {
	p, err := Parse("# vortex detection\na = b + c # trailing\n# done")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stmts) != 1 {
		t.Fatalf("comments must be ignored: %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",           // empty
		"a = ",       // dangling assignment
		"a = b +",    // dangling operator
		"a = (b",     // unbalanced paren
		"a = b[",     // unbalanced bracket
		"a = b[x]",   // non-numeric component
		"a = b[9]",   // component out of range
		"a = b[1.5]", // fractional component
		"a = $b",     // bad character
		"a = f(,)",   // bad args
		"= b",        // missing target
		"a = 1e",     // bad number tail parses as 1 then e -> juxtaposition error
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

// TestComponentIndexErrors: an index is reported as written when it is
// not an integer, and by its value when it is out of range.
func TestComponentIndexErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"du = grad3d(u, dims, x, y, z)\nr = du[7]", "expr: component index 7 out of range [0, 3]"},
		{"du = grad3d(u, dims, x, y, z)\nr = du[1.5]", "expr: component index 1.5 out of range [0, 3]"},
		{"r = a[0.50] + b[9]", "expr: component index 0.50 out of range [0, 3]"},
		{"r = a[9] + b[0.5]", "expr: component index 9 out of range [0, 3]"},
	} {
		_, err := Parse(tc.in)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) = %v, want %q", tc.in, err, tc.want)
		}
	}
}

func TestLexerLocations(t *testing.T) {
	_, err := Parse("a = b\nc = $")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("lex error should carry line 2: %v", err)
	}
}

// TestLexAllocatesOnlyTokens: every token's text is a substring of the
// input, its symbol a number and a NUMBER carries no boxed value, so
// lexing the Q-criterion allocates its token slice and nothing else, and
// lexing into a slice that already has the room (the one Parse borrows
// from its pool) allocates nothing.
func TestLexAllocatesOnlyTokens(t *testing.T) {
	for _, tc := range []struct {
		into []lalr.Token
		want float64
	}{{nil, 1}, {make([]lalr.Token, 0, 512), 0}} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := lex(vortex.QCritExpr, tc.into); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Fatalf("lex(QCritExpr) into a slice of capacity %d makes %.0f allocations, want %.0f", cap(tc.into), allocs, tc.want)
		}
	}
}

func TestCompileVelMag(t *testing.T) {
	net, err := Compile(vortex.VelMagExpr)
	if err != nil {
		t.Fatal(err)
	}
	c := countNetwork(t, net)
	if c != (netCounts{sources: 3, consts: 0, decomposes: 0, ops: 6}) {
		t.Fatalf("VelMag network counts %+v, want 3 sources / 6 ops", c)
	}
	if net.NodeByID(net.Output()).Filter != "sqrt" {
		t.Fatalf("output filter %q", net.NodeByID(net.Output()).Filter)
	}
	if (dftest.Net{Network: net}).Node("v_mag") != net.NodeByID(net.Output()) {
		t.Fatal("v_mag must alias the output")
	}
	// Source upload order for staged/fusion: u, v, w.
	var names []string
	for _, s := range net.Sources() {
		names = append(names, s.ID)
	}
	if strings.Join(names, ",") != "u,v,w" {
		t.Fatalf("source order %v", names)
	}
}

func TestCompileVortMag(t *testing.T) {
	net, err := Compile(vortex.VortMagExpr)
	if err != nil {
		t.Fatal(err)
	}
	c := countNetwork(t, net)
	// Table II: 12 op kernels (3 grad + 3 sub + 3 mul + 2 add + 1 sqrt),
	// 6 distinct decomposed components, 7 sources, no constants.
	want := netCounts{sources: 7, consts: 0, decomposes: 6, ops: 12}
	if c != want {
		t.Fatalf("VortMag network counts %+v, want %+v", c, want)
	}
	var names []string
	for _, s := range net.Sources() {
		names = append(names, s.ID)
	}
	if strings.Join(names, ",") != "u,dims,x,y,z,v,w" {
		t.Fatalf("source order %v", names)
	}
}

func TestCompileQCriterion(t *testing.T) {
	net, err := Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	c := countNetwork(t, net)
	// Table II derivation: 57 op kernels, 9 decomposed components after
	// CSE, one pooled constant (0.5), 7 sources.
	want := netCounts{sources: 7, consts: 1, decomposes: 9, ops: 57}
	if c != want {
		t.Fatalf("Q-criterion network counts %+v, want %+v", c, want)
	}
	if (dftest.Net{Network: net}).Node("q") != net.NodeByID(net.Output()) {
		t.Fatal("q must be the output")
	}
}

// TestFig4QCritNetworkShape checks the structure the paper's Figure 4
// illustrates: three gradient filters fan out of the velocity sources,
// every decompose hangs off a gradient, and everything funnels into the
// final 0.5*(w_norm - s_norm) multiply.
func TestFig4QCritNetworkShape(t *testing.T) {
	net, err := Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := net.TopoOrder()
	grads := 0
	for _, n := range order {
		switch n.Filter {
		case "grad3d":
			grads++
			if first := net.Nodes()[n.Inputs[0]]; first.Filter != "source" {
				t.Fatal("gradients must consume velocity sources directly")
			}
		case "decompose":
			if in := net.Nodes()[n.Inputs[0]]; in.Filter != "grad3d" {
				t.Fatalf("decompose must select from a gradient, got %q", in.Filter)
			}
		}
	}
	if grads != 3 {
		t.Fatalf("Figure 4 has 3 gradient filters, got %d", grads)
	}
	out := net.NodeByID(net.Output())
	if out.Filter != "mul" {
		t.Fatalf("output is 0.5 * (...): want mul, got %q", out.Filter)
	}
	if c := net.Nodes()[out.Inputs[0]]; c.Filter != "const" || c.Value != 0.5 {
		t.Fatal("output's first operand must be the pooled 0.5 constant")
	}
	if s := net.Nodes()[out.Inputs[1]]; s.Filter != "sub" {
		t.Fatal("output's second operand must be (w_norm - s_norm)")
	}
}

func TestConstantPooling(t *testing.T) {
	net, err := Compile("a = 0.5*u + 0.5*v + 2.0*w")
	if err != nil {
		t.Fatal(err)
	}
	c := countNetwork(t, net)
	if c.consts != 2 {
		t.Fatalf("common constants must pool: want 2 const nodes (0.5, 2.0), got %d", c.consts)
	}
}

func TestCSEOnDecomposes(t *testing.T) {
	net, err := Compile("g = grad3d(u,dims,x,y,z)\na = g[0] + g[0]\nb = g[0] * a")
	if err != nil {
		t.Fatal(err)
	}
	if c := countNetwork(t, net); c.decomposes != 1 {
		t.Fatalf("g[0] must be decomposed once, got %d", c.decomposes)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		"a = nosuchfun(b)", // unknown function
		"a = sqrt(b, c)",   // wrong arity
		"a = grad3d(u)",    // wrong arity
		"a = u[1]",         // decompose of scalar source
		"a = (u + v)[0]",   // decompose of scalar value
		"u = v\nw2 = u[0]", // decompose of scalar alias
	}
	for _, in := range cases {
		if _, err := Compile(in); err == nil {
			t.Errorf("Compile(%q) should fail", in)
		}
	}
}

func TestReassignmentUsesLatestBinding(t *testing.T) {
	net, err := Compile("a = u + v\na = a * a\nout = a + w")
	if err != nil {
		t.Fatal(err)
	}
	out := net.NodeByID(net.Output())
	if out.Filter != "add" {
		t.Fatalf("output filter %q", out.Filter)
	}
	mul := net.Nodes()[out.Inputs[0]]
	if mul.Filter != "mul" {
		t.Fatalf("a must refer to the re-bound mul node, got %q", mul.Filter)
	}
}

func TestBareExpressionStatement(t *testing.T) {
	net, err := Compile("sqrt(u*u + v*v)")
	if err != nil {
		t.Fatal(err)
	}
	if net.NodeByID(net.Output()).Filter != "sqrt" {
		t.Fatal("bare expression must become the output")
	}
}

func TestUnaryMinusBecomesNeg(t *testing.T) {
	net, err := Compile("a = -u * v")
	if err != nil {
		t.Fatal(err)
	}
	order, _ := net.TopoOrder()
	found := false
	for _, n := range order {
		if n.Filter == "neg" {
			found = true
		}
	}
	if !found {
		t.Fatal("unary minus must lower to the neg primitive")
	}
}

func TestIntroExampleStyleExpression(t *testing.T) {
	// A nested composition in the spirit of the paper's intro example
	// (without conditionals, which the primitive set doesn't include):
	// a = sqrt(grad3d(b,dims,x,y,z)[0]) * (c - -c).
	net, err := Compile("a = sqrt(grad3d(b,dims,x,y,z)[0]) * (c - -c)")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	c := countNetwork(t, net)
	if c.sources != 6 { // b, dims, x, y, z, c
		t.Fatalf("sources = %d, want 6", c.sources)
	}
}

// TestParseStringRoundTrip re-parses each normalized program and checks
// the normalization is a fixpoint.
func TestParseStringRoundTrip(t *testing.T) {
	for _, e := range vortex.Expressions() {
		p1, err := Parse(e.Text)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		p2, err := Parse(p1.String())
		if err != nil {
			t.Fatalf("%s reparse: %v", e.Name, err)
		}
		if p1.String() != p2.String() {
			t.Fatalf("%s: normalization is not a fixpoint:\n%s\nvs\n%s", e.Name, p1, p2)
		}
	}
}

func TestNetworkScriptForPaperExpressions(t *testing.T) {
	// The optional network-definition script must rebuild-describe every
	// paper expression (smoke: mentions grad3d and the output).
	net, err := Compile(vortex.VortMagExpr)
	if err != nil {
		t.Fatal(err)
	}
	s := net.Script()
	for _, frag := range []string{"add_source(\"u\")", "grad3d", "set_output", "alias(\"w_mag\""} {
		if !strings.Contains(s, frag) {
			t.Errorf("network script missing %q", frag)
		}
	}
}

func TestConditionalParsing(t *testing.T) {
	p, err := Parse("a = if (u > 0.5) then (v) else (-v)")
	if err != nil {
		t.Fatal(err)
	}
	want := "a = if ((u > 0.5)) then (v) else ((-v))"
	if got := p.String(); got != want {
		t.Fatalf("conditional rendered %q, want %q", got, want)
	}
	// Round trip.
	p2, err := Parse(p.String())
	if err != nil || p2.String() != p.String() {
		t.Fatalf("conditional round trip: %v", err)
	}
}

func TestConditionalNetwork(t *testing.T) {
	net, err := Compile("a = if (u >= v) then (u) else (v)")
	if err != nil {
		t.Fatal(err)
	}
	out := net.NodeByID(net.Output())
	if out.Filter != "select" {
		t.Fatalf("if/then/else must lower to select, got %q", out.Filter)
	}
	if cond := net.Nodes()[out.Inputs[0]]; cond.Filter != "ge" {
		t.Fatalf("condition must lower to ge, got %q", cond.Filter)
	}
}

func TestNormParsing(t *testing.T) {
	net, err := Compile("n = norm(grad3d(u,dims,x,y,z))")
	if err != nil {
		t.Fatal(err)
	}
	if net.NodeByID(net.Output()).Filter != "norm" {
		t.Fatalf("output filter %q", net.NodeByID(net.Output()).Filter)
	}
	// norm of a scalar must fail validation.
	if _, err := Compile("n = norm(u)"); err == nil {
		t.Fatal("norm of a scalar must fail")
	}
}

func TestRelationalErrors(t *testing.T) {
	cases := []string{
		"a = u > v > w",       // chained comparisons
		"a = if (u) then (v)", // missing else
		"a = u ! v",           // lone bang
		"a = if > 2",          // keyword misuse
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestComparisonChainsInNetworks(t *testing.T) {
	net, err := Compile("mask = (u > 0.1) * (v < 0.9)\nout = mask * w")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSyntaxErrorCaret(t *testing.T) {
	_, err := Parse("a = u + v\nb = u * )")
	if err == nil {
		t.Fatal("expected syntax error")
	}
	var se *SyntaxError
	if !errorsAs(err, &se) {
		t.Fatalf("want *SyntaxError, got %T: %v", err, err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 2") {
		t.Errorf("message should carry the line: %q", msg)
	}
	if !strings.Contains(msg, "b = u * )") {
		t.Errorf("message should carry the source excerpt: %q", msg)
	}
	if !strings.Contains(msg, "^") {
		t.Errorf("message should carry a caret: %q", msg)
	}
	// Caret lands under the offending token.
	lines := strings.Split(msg, "\n")
	caretLine := lines[len(lines)-1]
	if got := strings.Index(caretLine, "^"); got != 4+8 { // 4-space indent + col 9
		t.Errorf("caret at offset %d: %q", got, caretLine)
	}
}

func TestSyntaxErrorAtEOF(t *testing.T) {
	_, err := Parse("a = u +")
	if err == nil {
		t.Fatal("expected syntax error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "end of input") || !strings.Contains(msg, "a = u +") {
		t.Errorf("EOF error should show the trailing line: %q", msg)
	}
}

// errorsAs avoids importing errors twice in this test file.
func errorsAs(err error, target any) bool {
	return errors.As(err, target)
}

// TestArgumentListsOwnTheirWindows: argument lists share the arena's
// argument chunks, so a list longer than its window must move out
// rather than run into the next call's list.
func TestArgumentListsOwnTheirWindows(t *testing.T) {
	p, err := Parse("r = f(a, b, c, d, e, g, h) + k(p, q)\ns = k(x, y, z, w, v, u)")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.String(), "r = (f(a,b,c,d,e,g,h) + k(p,q))\ns = k(x,y,z,w,v,u)"; got != want {
		t.Fatalf("parsed\n%s\nwant\n%s", got, want)
	}
}

// slabExprs are the seven paper and extension expressions.
var slabExprs = []string{
	vortex.VelMagExpr, vortex.VortMagExpr, vortex.QCritExpr, vortex.GradMagExpr,
	vortex.EnstrophyExpr, vortex.DivergenceExpr, vortex.HelicityExpr,
}

// TestConcurrentParsesOwnTheirTrees: each parse builds its tree in its
// own arena, so parses running at once (run under -race) return trees
// that render exactly as a sequential parse does, and a tree kept from
// an earlier parse is unchanged by later ones.
func TestConcurrentParsesOwnTheirTrees(t *testing.T) {
	want := make([]string, len(slabExprs))
	kept := make([]*Program, len(slabExprs))
	for i, text := range slabExprs {
		p, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		kept[i], want[i] = p, p.String()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r) % len(slabExprs)
				p, err := Parse(slabExprs[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := p.String(); got != want[i] {
					errs <- "concurrent parse rendered\n" + got + "\nwant\n" + want[i]
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for i, p := range kept {
		if got := p.String(); got != want[i] {
			t.Errorf("a kept tree changed after later parses:\n%s\nwant\n%s", got, want[i])
		}
	}
}

// TestCommentAdvancesColumn: a comment's bytes count toward the column
// of the token after it on the same line, so a syntax error at the
// newline that ends a comment points at that newline (it pointed just
// past the '#').
func TestCommentAdvancesColumn(t *testing.T) {
	_, err := Parse("a = u >= #note\n* b")
	if err == nil || !strings.HasPrefix(err.Error(), `syntax error at line 1, column 15: unexpected "\n"`) {
		t.Fatalf("error at the newline ending a comment: %v", err)
	}
}

// TestArenaChunksSizedExactly: size, which counts tokens before the
// parse, starts every AST chunk at exactly the count the parse then
// takes from it, so an accepted program allocates one chunk per node
// type it uses, and counts exactly the input slots the network builder
// reserves for the nodes.
func TestArenaChunksSizedExactly(t *testing.T) {
	texts := append([]string{
		"a = -u - -v * (-w)\nb = if (a > 0) then (-a) else (a[0] - 1)",
		"c = f(1, 2, -3)[2] != 3 == 4 <= 5 >= 6 < 7 > 8",
	}, parseSeeds...)
	for _, text := range texts {
		toks, err := lex(text, nil)
		if err != nil || len(toks) == 0 {
			continue
		}
		a := &arena{}
		a.size(toks)
		want := []int{cap(a.stmts), cap(a.refs), cap(a.nums), cap(a.bins), cap(a.unaries), cap(a.indexes), cap(a.calls), cap(a.ifs)}
		if _, err := table.Parse(toks, a); err != nil || a.err != nil {
			continue
		}
		got := []int{len(a.stmts), len(a.refs), len(a.nums), len(a.bins), len(a.unaries), len(a.indexes), len(a.calls), len(a.ifs)}
		if !slices.Equal(got, want) {
			t.Errorf("%q: stmts, refs, nums, bins, unaries, indexes, calls, ifs taken %v, sized %v", text, got, want)
		}
		named := 0
		for _, st := range a.prog.Stmts {
			if st.Name != "" {
				named++
			}
		}
		if named != a.prog.named || a.prog.nodes != got[2]+got[3]+got[4]+got[5]+got[6]+got[7] {
			t.Errorf("%q: counted %d nodes and %d assignments, made %d and %d", text, a.prog.nodes, a.prog.named, got[2]+got[3]+got[4]+got[5]+got[6]+got[7], named)
		}
		inputs := 2*len(a.bins) + len(a.unaries) + len(a.indexes) + 3*len(a.ifs)
		for _, c := range a.calls {
			inputs += len(c.Args)
		}
		if inputs != a.prog.inputs {
			t.Errorf("%q: counted %d input slots, the nodes take %d", text, a.prog.inputs, inputs)
		}
	}
}

// TestDecimalMatchesParseFloat: the lexer's fast conversion returns
// strconv.ParseFloat's bits for every numeral it accepts, and declines
// (leaving it to ParseFloat) every other: random strings of digits and
// points up to 18 characters, and the edges of its 15-digit range.
func TestDecimalMatchesParseFloat(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	texts := []string{".", "..", "0", "0.", ".0", "999999999999999", "9999999999999999",
		"0.000000000000001", "0.0000000000000001", "1.2.3", "123456789.012345", "1234567890123456"}
	for i := 0; i < 200000; i++ {
		b := make([]byte, 1+r.Intn(18))
		for j := range b {
			b[j] = "0123456789012345678."[r.Intn(20)]
		}
		texts = append(texts, string(b))
	}
	fast := 0
	for _, text := range texts {
		f, ok := decimal(text)
		if !ok {
			continue
		}
		fast++
		want, err := strconv.ParseFloat(text, 64)
		if err != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("decimal(%q) = %v (%x), ParseFloat = %v (%x), %v", text, f, math.Float64bits(f), want, math.Float64bits(want), err)
		}
	}
	if fast < len(texts)/4 {
		t.Fatalf("decimal took only %d of %d numerals", fast, len(texts))
	}
}
