package expr

import (
	"strings"
	"testing"

	"dfg/internal/passes"
	"dfg/internal/vortex"
)

// parseSeeds is FuzzParse's seed corpus.
var parseSeeds = []string{
	vortex.VelMagExpr,
	vortex.VortMagExpr,
	vortex.QCritExpr,
	vortex.EnstrophyExpr,
	"a = if (norm(grad3d(b,dims,x,y,z)) > 5) then (c*c) else (-c*c)",
	"a = 1e10 + .5 * u[0]",
	"a=b;c=d\n\n#comment\ne=f",
	"a = pow(u, 2) >= exp(v)",
	"((((((((((",
	"= = = =",
	"a = u u u",
	"\x00\xff",
	"a = -----u",
	"t0 = u\nb = t0",
	// Definition-shaped programs: these exercise the same grammar
	// paths FuzzCompileWithDefinitions expands through the database.
	"speed = sqrt(u*u + v*v + w*w)\nke = 0.5 * rho * speed * speed",
	"d1 = d2 + 1\nd2 = d1 * 2\nr = d1",
	"vmag2 = u*u + v*v + w*w\nr = sqrt(vmag2) + vmag2",
}

// FuzzParse drives the lexer, the LALR driver, and the network builder
// with arbitrary input: nothing may panic, every token's text is the
// input at its line and column, and every accepted program must compile
// into a valid network. `go test` exercises the seed corpus; `go test
// -fuzz=FuzzParse ./internal/expr` explores further.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, _ := lex(input, nil)
		lines := strings.SplitAfter(input, "\n")
		for _, tok := range toks {
			l, c := int(tok.Line)-1, int(tok.Col)-1
			if l >= len(lines) || c > len(lines[l]) || !strings.HasPrefix(lines[l][c:], tok.Text) {
				t.Fatalf("token %q at line %d, column %d is not the input there\ninput: %q", tok.Text, tok.Line, tok.Col, input)
			}
		}
		p, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		net, err := BuildNetworkWithDefinitions(p, nil)
		if err != nil {
			return
		}
		if _, err := passes.Paper.Run(net); err != nil {
			t.Fatalf("accepted program failed the Paper pipeline: %v\ninput: %q", err, input)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("accepted program failed validation: %v\ninput: %q", err, input)
		}
		if _, err := net.TopoOrder(); err != nil {
			t.Fatalf("accepted program failed scheduling: %v\ninput: %q", err, input)
		}
	})
}

// FuzzCompileWithDefinitions drives the definition-expansion machinery:
// the main program plus two named definitions that may reference each
// other (or themselves). Nothing may panic; cycles must be rejected as
// errors; every accepted program must yield a valid, sealed, schedulable
// network.
func FuzzCompileWithDefinitions(f *testing.F) {
	seeds := [][3]string{
		// Plain expansion and re-expansion.
		{"r = sqrt(d1)", "u*u + v*v + w*w", "sqrt(abs(u))"},
		// Chained definitions: d2 references d1.
		{"r = d2 + d1", "u * 2", "d1 + 1"},
		// Direct and mutual recursion — must be rejected, never loop.
		{"r = d1", "d1 + 1", "u"},
		{"r = d1", "d2 + 1", "d1 * 2"},
		{"r = d2", "d2", "d1"},
		// Shadowing: a local assignment hides the definition name.
		{"d1 = u\nr = d1 + 1", "v * 9", "w"},
		// Definitions with their own multi-statement local namespaces.
		{"r = d1 * d2", "t = u + 1\nt * t", "t = v - 1\nt / 2"},
		// Definition bodies that fail to parse or to build.
		{"r = d1", "((((", "u"},
		{"r = d1", "norm(u)", "u"},
		// Definitions feeding stencil arguments.
		{"r = norm(grad3d(d1, dims, x, y, z))", "u + v", "w"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, text, def1, def2 string) {
		defs := map[string]string{"d1": def1, "d2": def2}
		net, err := CompileWithDefinitions(text, defs)
		if err != nil {
			return // rejection (including cycles) is fine; panics are not
		}
		if !net.Sealed() {
			t.Fatalf("compiled network is not sealed\ninput: %q defs: %q", text, defs)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("accepted program failed validation: %v\ninput: %q defs: %q", err, text, defs)
		}
		if _, err := net.TopoOrder(); err != nil {
			t.Fatalf("accepted program failed scheduling: %v\ninput: %q defs: %q", err, text, defs)
		}
	})
}
