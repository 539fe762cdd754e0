package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/kernels"
	"dfg/internal/mesh"
)

// Cross-strategy differential harness: generate random well-formed
// expression programs (reusing the internal/expr AST builders), compile
// each once, execute it under roundtrip, staged and fusion on identical
// inputs, and require element-wise agreement within 1 ULP. The three
// strategies compute the same dataflow network through entirely
// different data-movement and kernel-composition paths, so any
// divergence beyond float reassociation is a real bug. This harness is
// what locks the strategies' observable behavior together while the
// engine/cache layers around them are restructured.

// diffOps and diffCalls are the primitive surface the generator draws
// from — all three operand classes: elementwise binaries, comparisons
// feeding select, and unary/transcendental calls.
var (
	diffOps   = []string{"+", "-", "*", "/"}
	diffCmps  = []string{">", "<", ">=", "<=", "==", "!="}
	diffCalls = []string{"sqrt", "abs", "exp", "sin", "cos", "log"}
)

// randExpr builds a random expression tree over the named scalar sources
// using the expr package's AST node types.
func randExpr(rng *rand.Rand, depth int, sources []string) expr.Node {
	if depth <= 0 {
		if rng.Intn(3) == 0 {
			return &expr.Num{Value: float64(rng.Intn(17)) / 4}
		}
		return &expr.Ref{Name: sources[rng.Intn(len(sources))]}
	}
	switch rng.Intn(10) {
	case 0:
		return &expr.Unary{Op: "-", X: randExpr(rng, depth-1, sources)}
	case 1:
		fun := diffCalls[rng.Intn(len(diffCalls))]
		arg := randExpr(rng, depth-1, sources)
		if fun == "sqrt" || fun == "log" {
			// Keep domains positive so NaN patterns stay trivial.
			arg = &expr.Call{Fun: "abs", Args: []expr.Node{arg}}
		}
		return &expr.Call{Fun: fun, Args: []expr.Node{arg}}
	case 2:
		return &expr.Call{Fun: []string{"min", "max", "pow"}[rng.Intn(3)], Args: []expr.Node{
			randExpr(rng, depth-1, sources),
			&expr.Num{Value: float64(rng.Intn(3) + 1)},
		}}
	case 3:
		// Conditional: comparisons produce 0/1, select picks per element.
		return &expr.If{
			Cond: &expr.Binary{
				Op: diffCmps[rng.Intn(len(diffCmps))],
				L:  randExpr(rng, depth-1, sources),
				R:  randExpr(rng, depth-1, sources),
			},
			Then: randExpr(rng, depth-1, sources),
			Else: randExpr(rng, depth-1, sources),
		}
	case 4:
		// Gradient chain: stencil + decompose, the primitives with the
		// most divergent per-strategy handling (host bounce vs device
		// intermediate vs fused scratch pass).
		return &expr.Index{
			Base: &expr.Call{Fun: "grad3d", Args: []expr.Node{
				&expr.Ref{Name: sources[rng.Intn(len(sources))]},
				&expr.Ref{Name: "dims"}, &expr.Ref{Name: "x"}, &expr.Ref{Name: "y"}, &expr.Ref{Name: "z"},
			}},
			Comp: rng.Intn(3),
		}
	case 5:
		return &expr.Call{Fun: "norm", Args: []expr.Node{
			&expr.Call{Fun: "grad3d", Args: []expr.Node{
				&expr.Ref{Name: sources[rng.Intn(len(sources))]},
				&expr.Ref{Name: "dims"}, &expr.Ref{Name: "x"}, &expr.Ref{Name: "y"}, &expr.Ref{Name: "z"},
			}},
		}}
	default:
		return &expr.Binary{
			Op: diffOps[rng.Intn(len(diffOps))],
			L:  randExpr(rng, depth-1, sources),
			R:  randExpr(rng, depth-1, sources),
		}
	}
}

// randProgram renders a 1–3 statement program where later statements may
// reference earlier assignments.
func randProgram(rng *rand.Rand, sources []string) string {
	p := &expr.Program{}
	avail := append([]string{}, sources...)
	stmts := 1 + rng.Intn(3)
	for i := 0; i < stmts; i++ {
		name := fmt.Sprintf("s%d", i)
		p.Stmts = append(p.Stmts, &expr.Stmt{Name: name, X: randExpr(rng, 2+rng.Intn(2), avail)})
		avail = append(avail, name)
	}
	return p.String()
}

// sameClass is the zero-ULP comparison: a and b have equal bits, or are
// both NaN — IEEE 754 does not fix which NaN payload propagates, and
// commuted CSE may swap two NaN operands. Unlike ulpDiff it tells +0
// from -0.
func sameClass(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// ulpDiff returns the distance in float32 representation steps, treating
// equal values (and NaN vs NaN, +0 vs -0) as 0.
func ulpDiff(a, b float32) uint32 {
	if a == b {
		return 0
	}
	an, bn := math.IsNaN(float64(a)), math.IsNaN(float64(b))
	if an || bn {
		if an && bn {
			return 0
		}
		return math.MaxUint32
	}
	ab, bb := math.Float32bits(a), math.Float32bits(b)
	// Map to a monotone ordering of the float line.
	order := func(u uint32) int64 {
		if u&0x8000_0000 != 0 {
			return -int64(u & 0x7fff_ffff)
		}
		return int64(u)
	}
	d := order(ab) - order(bb)
	if d < 0 {
		d = -d
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// TestDifferentialRandomExpressions is the property harness: ~50 random
// programs, three strategies, element-wise agreement within 1 ULP (the
// documented tolerance for fusion's float reassociation).
func TestDifferentialRandomExpressions(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 6, NY: 5, NZ: 4}, 0.5, 0.4, 0.25)
	n := m.Cells()
	rng := rand.New(rand.NewSource(20260805))
	fields := map[string][]float32{}
	for _, name := range []string{"u", "v", "w"} {
		f := make([]float32, n)
		for i := range f {
			f[i] = rng.Float32()*4 - 2
		}
		fields[name] = f
	}
	x, y, z := m.CellCenterFields()
	bind := Bindings{N: n, Sources: map[string]Source{
		"dims": {Data: kernels.DimsArray(m.Dims.NX, m.Dims.NY, m.Dims.NZ), Width: 1},
		"x":    {Data: x, Width: 1},
		"y":    {Data: y, Width: 1},
		"z":    {Data: z, Width: 1},
	}}
	for name, data := range fields {
		bind.Sources[name] = Source{Data: data, Width: 1}
	}

	const trials = 50
	const maxULP = 1
	compiled := 0
	for trial := 0; trial < trials; trial++ {
		text := randProgram(rand.New(rand.NewSource(int64(trial))), []string{"u", "v", "w"})
		net, err := expr.Compile(text)
		if err != nil {
			t.Fatalf("trial %d: generated program failed to compile: %v\n%s", trial, err, text)
		}
		compiled++

		results := make(map[string][]float32, len(Names()))
		for _, name := range Names() {
			s, err := ForName(name)
			if err != nil {
				t.Fatal(err)
			}
			env := cpuEnv()
			res, err := Execute(s, env, net, bind)
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, name, err, text)
			}
			if len(res.Data) != n*res.Width {
				t.Fatalf("trial %d %s: shape %d x %d for n=%d", trial, name, len(res.Data), res.Width, n)
			}
			if env.Context().LiveBuffers() != 0 {
				t.Fatalf("trial %d %s: leaked %d buffers", trial, name, env.Context().LiveBuffers())
			}
			results[name] = res.Data
		}

		ref := results["roundtrip"]
		for _, name := range []string{"staged", "fusion"} {
			got := results[name]
			if len(got) != len(ref) {
				t.Fatalf("trial %d: %s width differs from roundtrip", trial, name)
			}
			for i := range ref {
				if d := ulpDiff(ref[i], got[i]); d > maxULP {
					t.Fatalf("trial %d: roundtrip and %s disagree at element %d: %v vs %v (%d ULP)\nprogram:\n%s",
						trial, name, i, ref[i], got[i], d, text)
				}
			}
		}

		// The host VM holds a stronger bound than the device strategies'
		// shared 1-ULP tolerance: it executes the fused kernel's exact
		// instruction plan, so it must match fusion at zero ULP on every
		// element, non-finite included.
		env := cpuEnv()
		vres, err := Execute(Strategy{Kind: VM}, env, net, bind)
		if err != nil {
			t.Fatalf("trial %d vm: %v\n%s", trial, err, text)
		}
		if vres.Profile.Kernels != 0 || vres.Profile.Writes != 0 || vres.Profile.Reads != 0 {
			t.Fatalf("trial %d vm: device events %+v, want none", trial, vres.Profile)
		}
		if env.Context().LiveBuffers() != 0 {
			t.Fatalf("trial %d vm: leaked %d buffers", trial, env.Context().LiveBuffers())
		}
		fref := results["fusion"]
		if len(vres.Data) != len(fref) {
			t.Fatalf("trial %d: vm shape %d differs from fusion %d", trial, len(vres.Data), len(fref))
		}
		for i := range fref {
			if !sameClass(fref[i], vres.Data[i]) {
				t.Fatalf("trial %d: vm diverges from fusion at element %d: %v vs %v\nprogram:\n%s",
					trial, i, fref[i], vres.Data[i], text)
			}
		}
	}
	if compiled != trials {
		t.Fatalf("generator produced %d/%d compilable programs", compiled, trials)
	}
}

// TestDifferentialWithDefinitions runs the same three-way comparison
// through the definition-expansion path, ensuring expanded programs
// behave identically under every strategy too.
func TestDifferentialWithDefinitions(t *testing.T) {
	defs := map[string]string{
		"vmag2": "u*u + v*v + w*w",
		"speed": "sqrt(vmag2)",
	}
	exprs := []string{
		"r = speed + 1",
		"r = vmag2 / (speed + 0.5)",
		"r = if (speed > 2) then (vmag2) else (-vmag2)",
	}
	const n = 600
	rng := rand.New(rand.NewSource(7))
	bind, _, _, _ := velMagBindings(rng, n)
	for _, text := range exprs {
		net, err := expr.CompileWithDefinitions(text, defs)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		var ref []float32
		for _, name := range Names() {
			s, _ := ForName(name)
			res, err := Execute(s, cpuEnv(), net, bind)
			if err != nil {
				t.Fatalf("%s under %s: %v", text, name, err)
			}
			if ref == nil {
				ref = res.Data
				continue
			}
			for i := range ref {
				if d := ulpDiff(ref[i], res.Data[i]); d > 1 {
					t.Fatalf("%s: %s diverges at %d: %v vs %v", text, name, i, ref[i], res.Data[i])
				}
			}
		}
	}
}

// TestUlpDiff sanity-checks the comparison metric itself.
func TestUlpDiff(t *testing.T) {
	if ulpDiff(1, 1) != 0 {
		t.Error("equal values")
	}
	if ulpDiff(float32(math.NaN()), float32(math.NaN())) != 0 {
		t.Error("NaN vs NaN must count as agreement")
	}
	if ulpDiff(1, float32(math.NaN())) != math.MaxUint32 {
		t.Error("NaN vs number must be maximal")
	}
	one := float32(1)
	next := math.Float32frombits(math.Float32bits(one) + 1)
	if ulpDiff(one, next) != 1 {
		t.Errorf("adjacent floats must be 1 ULP apart, got %d", ulpDiff(one, next))
	}
	if ulpDiff(-0, 0) != 0 {
		t.Error("signed zeros are equal")
	}
	if d := ulpDiff(-1e-38, 1e-38); d < 2 {
		t.Errorf("sign-crossing distance must span both sides, got %d", d)
	}
}
