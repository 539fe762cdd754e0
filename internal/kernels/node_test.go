package kernels_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/kernels"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
)

// These tests run the primitives as the staged and roundtrip strategies
// launch them: each filter's node kernel (codegen.BuildNode), one pass of
// the lowering the fused kernels run, over one buffer per input.

func testEnv() *ocl.Env {
	return ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
}

// outBuffer allocates an output buffer, failing the test if it cannot.
func outBuffer(t *testing.T, env *ocl.Env, elems, width int) *ocl.Buffer {
	t.Helper()
	b, err := env.NewBuffer("out", elems, width)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func close32(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

// nodeKernel builds the node kernel of one node of the filter: over the
// sources a, b and c for a primitive, f, dims, x, y and z for a stencil,
// and a gradient of those for decompose (component comp) and norm. A
// constant's value is 0.5.
func nodeKernel(t testing.TB, filter string, comp int) *codegen.Program {
	t.Helper()
	nw := dataflow.NewNetwork()
	var srcs [5]int32
	names := []string{"a", "b", "c"}
	if p, ok := kernels.Lookup(filter); !ok || p.Arity > 3 {
		names = []string{"f", "dims", "x", "y", "z"}
	}
	for i, name := range names {
		srcs[i], _ = nw.Source(name)
	}
	grad, _ := dataflow.Callable("grad3d")
	var p int32
	var err error
	switch filter {
	case "const":
		p = nw.AddConstAt(0.5)
	case "decompose":
		if p, err = nw.AddFilterAt(grad, srcs[:]...); err == nil {
			p, err = nw.AddDecomposeAt(p, comp)
		}
	case "norm":
		norm, _ := dataflow.Callable("norm")
		if p, err = nw.AddFilterAt(grad, srcs[:]...); err == nil {
			p, err = nw.AddFilterAt(norm, p)
		}
	default:
		f, ok := dataflow.Callable(filter)
		if !ok {
			t.Fatalf("%s is not a filter", filter)
		}
		p, err = nw.AddFilterAt(f, srcs[:f.Info().Arity]...)
	}
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.BuildNode(nw.Nodes(), nw.Nodes()[p])
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// upload uploads each array as a width-1 input buffer.
func upload(t *testing.T, env *ocl.Env, arrays ...[]float32) []*ocl.Buffer {
	t.Helper()
	bufs := make([]*ocl.Buffer, len(arrays))
	for i, a := range arrays {
		b, err := env.Upload(fmt.Sprint("in", i), a, 1)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	return bufs
}

func TestElementwiseKernels(t *testing.T) {
	a := []float32{1, -4, 9, 2.5, 0}
	b := []float32{2, 2, 3, -0.5, 1}
	cases := []struct {
		filter string
		inputs int
		want   func(a, b float32) float64
	}{
		{"add", 2, func(a, b float32) float64 { return float64(a) + float64(b) }},
		{"sub", 2, func(a, b float32) float64 { return float64(a) - float64(b) }},
		{"mul", 2, func(a, b float32) float64 { return float64(a) * float64(b) }},
		{"div", 2, func(a, b float32) float64 { return float64(a) / float64(b) }},
		{"min", 2, func(a, b float32) float64 { return math.Min(float64(a), float64(b)) }},
		{"max", 2, func(a, b float32) float64 { return math.Max(float64(a), float64(b)) }},
		{"sqrt", 1, func(a, _ float32) float64 { return math.Sqrt(math.Abs(float64(a))) }},
		{"neg", 1, func(a, _ float32) float64 { return -float64(a) }},
		{"abs", 1, func(a, _ float32) float64 { return math.Abs(float64(a)) }},
	}
	for _, tc := range cases {
		t.Run(tc.filter, func(t *testing.T) {
			env := testEnv()
			k := nodeKernel(t, tc.filter, 0).Kernel
			in := a
			if tc.filter == "sqrt" {
				in = []float32{1, 4, 9, 2.5, 0} // keep sqrt inputs non-negative
			}
			bufs := upload(t, env, in, b)[:tc.inputs]
			out := outBuffer(t, env, len(in), 1)
			if err := env.Run(k, len(in), append(bufs, out)); err != nil {
				t.Fatal(err)
			}
			got, _ := env.Download(out)
			for i := range got {
				want := tc.want(in[i], b[i])
				if !close32(float64(got[i]), want, 1e-6) {
					t.Fatalf("%s[%d] = %v want %v", tc.filter, i, got[i], want)
				}
			}
		})
	}
}

func TestKernelSourcesWellFormed(t *testing.T) {
	// Every filter's node kernel renders real OpenCL C source with a
	// kernel entry point named after the filter. (codegen's
	// TestEveryFilterHasANodeKernel checks that every registered filter
	// has one.)
	names := []string{"norm", "decompose", "const", "grad3d", "grad3dx", "grad3dy", "grad3dz"}
	for _, p := range kernels.Primitives() {
		names = append(names, p.Name)
	}
	for _, name := range names {
		prog := nodeKernel(t, name, 0)
		k, src := prog.Kernel, prog.Render()
		if !strings.Contains(src, "__kernel void "+k.Name+"(") {
			t.Errorf("%s: source missing kernel entry point %q:\n%s", name, k.Name, src)
		}
		if !strings.Contains(src, "get_global_id(0)") || !strings.Contains(src, "out[gid] = ") {
			t.Errorf("%s: source does not store out per element of the ND-range:\n%s", name, src)
		}
		if k.Cost == (ocl.Cost{}) {
			t.Errorf("%s: kernel must declare a cost model", name)
		}
	}
}

func TestDecomposeKernel(t *testing.T) {
	env := testEnv()
	const n = 100
	vec := make([]float32, 4*n)
	for i := 0; i < n; i++ {
		for c := 0; c < 4; c++ {
			vec[4*i+c] = float32(10*i + c)
		}
	}
	in, err := env.Upload("vec", vec, 4)
	if err != nil {
		t.Fatal(err)
	}
	for comp := 0; comp < 4; comp++ {
		out := outBuffer(t, env, n, 1)
		if err := env.Run(nodeKernel(t, "decompose", comp).Kernel, n, []*ocl.Buffer{in, out}); err != nil {
			t.Fatal(err)
		}
		got, _ := env.Download(out)
		for i := 0; i < n; i++ {
			if got[i] != float32(10*i+comp) {
				t.Fatalf("decompose comp %d at %d: got %v want %v", comp, i, got[i], float32(10*i+comp))
			}
		}
		out.Release()
	}
}

func TestConstKernel(t *testing.T) {
	env := testEnv()
	const n = 64
	out := outBuffer(t, env, n, 1)
	k := nodeKernel(t, "const", 0).Kernel
	if err := env.Run(k, n, []*ocl.Buffer{out}); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(out)
	for i := range got {
		if got[i] != 0.5 {
			t.Fatalf("%s at %d: %v", k.Name, i, got[i])
		}
	}
}

// TestGrad3DKernelMatchesMeshGradient cross-validates the gradient
// kernel's inline-centers stencil against the independently written
// mesh.Gradient3D on a non-uniform mesh, and holds the gradient node
// kernels, run over two launch ranges, to the per-element oracle
// GradAt bit for bit.
func TestGrad3DKernelMatchesMeshGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := []float32{0, 0.3, 1.0, 1.2, 2.0, 2.9, 3.1}
	y := []float32{0, 0.5, 1.5, 2.0, 3.3}
	z := []float32{-2, -1, 0.5, 1}
	m, err := mesh.NewRectilinear(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Cells()
	field := make([]float32, n)
	for i := range field {
		field[i] = rng.Float32()*4 - 2
	}
	want := mesh.Gradient3D(field, m)

	env := testEnv()
	d := m.Dims
	dims := kernels.DimsArray(d.NX, d.NY, d.NZ)
	cx, cy, cz := m.CellCenterFields()
	out := outBuffer(t, env, n, 4)
	if err := env.Run(nodeKernel(t, "grad3d", 0).Kernel, n, append(upload(t, env, field, dims, cx, cy, cz), out)); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(out)
	for i := 0; i < 4*n; i++ {
		if !close32(float64(got[i]), float64(want[i]), 1e-4) {
			t.Fatalf("gradient mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}

	views := []ocl.View{{Data: field}, {Data: dims}, {Data: cx}, {Data: cy}, {Data: cz}, {}}
	for _, filter := range []string{"grad3d", "grad3dx", "grad3dy", "grad3dz"} {
		k := nodeKernel(t, filter, 0).Kernel
		w := 1 // the output's width: one axis, or all three and a pad lane
		if filter == "grad3d" {
			w = 4
		}
		out := make([]float32, w*n)
		views[5] = ocl.View{Data: out, Elems: n, Width: w}
		cut := rng.Intn(n + 1)
		k.Passes[0](0, cut, views)
		k.Passes[0](cut, n, views)
		for idx := 0; idx < n; idx++ {
			gx, gy, gz := kernels.GradAt(field, cx, cy, cz, d.NX, d.NY, d.NZ, idx)
			g := []float32{gx, gy, gz, 0}
			if w == 1 {
				g = g[filter[6]-'x' : filter[6]-'x'+1]
			}
			for c := range g {
				if math.Float32bits(out[w*idx+c]) != math.Float32bits(g[c]) {
					t.Fatalf("%s cell %d lane %d (cut %d): %v vs GradAt %v", k.Name, idx, c, cut, out[w*idx+c], g[c])
				}
			}
		}
	}
}

func TestGrad3DSourceSharedWithKernel(t *testing.T) {
	// The gradient kernel's source embeds the shared primitive function
	// verbatim — "written once and shared by all execution strategies".
	if src := nodeKernel(t, "grad3d", 0).Render(); !strings.Contains(src, kernels.Grad3DFunction) {
		t.Fatal("kgrad3d source must embed the shared Grad3DFunction")
	}
	if c := strings.Count(kernels.Grad3DFunction, "\n"); c < 50 {
		t.Fatalf("the paper says grad3d needs over 50 lines of OpenCL source; got %d", c)
	}
}

func TestComparisonKernels(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{2, 2, 2, 2}
	want := map[string][]float32{
		"gt": {0, 0, 1, 1},
		"lt": {1, 0, 0, 0},
		"ge": {0, 1, 1, 1},
		"le": {1, 1, 0, 0},
		"eq": {0, 1, 0, 0},
		"ne": {1, 0, 1, 1},
	}
	for name, expect := range want {
		env := testEnv()
		out := outBuffer(t, env, len(a), 1)
		if err := env.Run(nodeKernel(t, name, 0).Kernel, len(a), append(upload(t, env, a, b), out)); err != nil {
			t.Fatal(err)
		}
		got, _ := env.Download(out)
		for i := range expect {
			if got[i] != expect[i] {
				t.Fatalf("%s[%d] = %v want %v", name, i, got[i], expect[i])
			}
		}
	}
}

func TestSelectKernel(t *testing.T) {
	env := testEnv()
	cond := []float32{1, 0, 1, 0}
	a := []float32{10, 20, 30, 40}
	b := []float32{-1, -2, -3, -4}
	out := outBuffer(t, env, 4, 1)
	k := nodeKernel(t, "select", 0).Kernel
	if k.Name != "kselect" || k.NumBufs != 4 {
		t.Fatalf("select's node kernel is %q over %d buffers, want kselect over 4", k.Name, k.NumBufs)
	}
	if err := env.Run(k, 4, append(upload(t, env, cond, a, b), out)); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(out)
	for i, want := range []float32{10, -2, 30, -4} {
		if got[i] != want {
			t.Fatalf("select[%d] = %v want %v", i, got[i], want)
		}
	}
}

func TestNormKernel(t *testing.T) {
	env := testEnv()
	vec := []float32{3, 4, 0, 0 /*|.|=5*/, 1, 2, 2, 9 /*|.|=3, s3 ignored*/}
	in, _ := env.Upload("v", vec, 4)
	out := outBuffer(t, env, 2, 1)
	if err := env.Run(nodeKernel(t, "norm", 0).Kernel, 2, []*ocl.Buffer{in, out}); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(out)
	if !close32(float64(got[0]), 5, 1e-6) || !close32(float64(got[1]), 3, 1e-6) {
		t.Fatalf("norm = %v, want [5 3] (s3 lane must be ignored)", got)
	}
}

// TestNormIsFloatArithmetic pins norm's node kernel to what its source
// says — float squares, a left-to-right float sum, sqrtf — against a
// float32 loop spelled here, over every triple of special values (signed
// zeros, infinities, NaN, denormals, squares that underflow or overflow)
// and random vectors. The random ones must include a vector where a
// float64 sum rounds differently, or the pin would not tell the two
// apart.
func TestNormIsFloatArithmetic(t *testing.T) {
	special := []float32{0, float32(math.Copysign(0, -1)), 1, -3, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(1), math.Float32frombits(0x807fffff), 1e-30, 3e19, math.MaxFloat32}
	var vec []float32
	for _, x := range special {
		for _, y := range special {
			for _, z := range special {
				vec = append(vec, x, y, z, 7) // the fourth lane is never read
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 4096; i++ {
		vec = append(vec, float32(rng.NormFloat64()), float32(rng.NormFloat64()*100), float32(rng.NormFloat64()/100), 0)
	}
	n := len(vec) / 4
	out := make([]float32, n)
	nodeKernel(t, "norm", 0).Kernel.Passes[0](0, n, []ocl.View{{Data: vec, Elems: n, Width: 4}, {Data: out, Elems: n, Width: 1}})
	widened := 0
	for i := range out {
		var s float32
		for _, v := range vec[4*i : 4*i+3] {
			s = float32(s + float32(v*v))
		}
		want := float32(math.Sqrt(float64(s)))
		if math.Float32bits(out[i]) != math.Float32bits(want) && !(want != want && out[i] != out[i]) {
			t.Fatalf("norm%v = %v (%#08x), want %v (%#08x)", vec[4*i:4*i+3], out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
		}
		x, y, z := float64(vec[4*i]), float64(vec[4*i+1]), float64(vec[4*i+2])
		if float32(math.Sqrt(x*x+y*y+z*z)) != want {
			widened++
		}
	}
	if widened == 0 {
		t.Fatal("no vector tells float from float64 arithmetic apart")
	}
}

// TestCostAccessors: the gradients' node kernels are priced above an add,
// and store their output.
func TestCostAccessors(t *testing.T) {
	add := nodeKernel(t, "add", 0).Kernel
	for _, name := range []string{"grad3d", "grad3dx"} {
		c := nodeKernel(t, name, 0).Kernel.Cost
		if c.StoreBytes <= 0 {
			t.Errorf("%s cost must store at least its output: %+v", name, c)
		}
		if c.Flops <= add.Cost.Flops {
			t.Errorf("%s must cost more than an add: %+v", name, c)
		}
	}
}

// scalars spells every primitive of the table per element, by hand from
// its OpenCL C text, sharing nothing with the lane bodies.
var scalars = map[string]func(a, b, c float32) float32{
	"add": func(a, b, _ float32) float32 { return a + b },
	"sub": func(a, b, _ float32) float32 { return a - b },
	"mul": func(a, b, _ float32) float32 { return a * b },
	"div": func(a, b, _ float32) float32 { return a / b },
	"min": func(a, b, _ float32) float32 { // fmin: a NaN yields the other operand; a unless b < a
		if a != a || (b == b && b < a) {
			return b
		}
		return a
	},
	"max": func(a, b, _ float32) float32 {
		if a != a || (b == b && b > a) {
			return b
		}
		return a
	},
	"sqrt": func(a, _, _ float32) float32 { return float32(math.Sqrt(float64(a))) },
	"neg":  func(a, _, _ float32) float32 { return -a },
	"abs":  func(a, _, _ float32) float32 { return math.Float32frombits(math.Float32bits(a) & 0x7fffffff) },
	"gt":   func(a, b, _ float32) float32 { return truth(a > b) },
	"lt":   func(a, b, _ float32) float32 { return truth(a < b) },
	"ge":   func(a, b, _ float32) float32 { return truth(a >= b) },
	"le":   func(a, b, _ float32) float32 { return truth(a <= b) },
	"eq":   func(a, b, _ float32) float32 { return truth(a == b) },
	"ne":   func(a, b, _ float32) float32 { return truth(a != b) },
	"select": func(c, a, b float32) float32 {
		if c != 0 {
			return a
		}
		return b
	},
	"exp": func(a, _, _ float32) float32 { return float32(math.Exp(float64(a))) },
	"log": func(a, _, _ float32) float32 { return float32(math.Log(float64(a))) },
	"sin": func(a, _, _ float32) float32 { return float32(math.Sin(float64(a))) },
	"cos": func(a, _, _ float32) float32 { return float32(math.Cos(float64(a))) },
	"pow": func(a, b, _ float32) float32 { return float32(math.Pow(float64(a), float64(b))) },
}

func truth(b bool) float32 {
	if b {
		return 1
	}
	return 0
}

// TestLanesVectorMatchesGoLoop: every row's lane body — the Go loop, and
// the vector body in front of it where there is one — produces the bits
// of the scalar spelled above, NaN payloads included, and writes nothing
// outside dst: for every length around the 8-wide step and a register
// block of 256 or 512 elements, every alignment of the operands, every
// legal aliasing of dst, and every tuple of value classes (x/0 and 0/0
// among them), called directly and through the node kernel.
func TestLanesVectorMatchesGoLoop(t *testing.T) {
	kernels.EachDispatch(t, lanesMatchScalar)
}

func lanesMatchScalar(t *testing.T) {
	L := len(kernels.LaneValues)
	lengths := []int{255, 256, 257, 511, 512, 513}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	rot := 0
	for _, p := range kernels.Primitives() {
		scalar, arity := scalars[p.Name], p.Arity
		if scalar == nil {
			t.Fatalf("%s: no scalar spelled in the test", p.Name)
		}
		// want evaluates the scalar over the operands' first n elements.
		want := func(in [][]float32, n int) []float32 {
			var x [3]float32
			w := make([]float32, n)
			for i := range w {
				for k := range in {
					x[k] = in[k][i]
				}
				w[i] = scalar(x[0], x[1], x[2])
			}
			return w
		}
		for _, n := range lengths {
			for off := 0; off < 8; off++ {
				for alias := 0; alias < 1<<arity; alias++ { // bit k: dst is operand k
					rot++
					backD, d := kernels.Window(n, off)
					for i := range backD {
						backD[i] = 77
					}
					in := make([][]float32, arity)
					// The last operand first, so that under aliasing the
					// earlier operand's values win.
					for k := arity - 1; k >= 0; k-- {
						_, in[k] = kernels.Window(n, (off+3*k+3)%8)
						if alias>>k&1 != 0 {
							in[k] = d
						}
						for i := range in[k] {
							in[k][i] = kernels.LaneValues[(i+rot+k*(rot/L))%L]
						}
					}
					w := want(in, n)
					p.Apply(d, in)
					what := fmt.Sprintf("%s n=%d off=%d alias=%d", p.Name, n, off, alias)
					kernels.SameBits(t, what, d, w)
					for i, g := range backD {
						if (i < 8+off || i >= 8+off+n) && g != 77 {
							t.Fatalf("%s: wrote outside dst at %d", what, i-8-off)
						}
					}
				}
			}
		}

		// Every ordered tuple of classes, in one long lane.
		n := 1
		for k := 0; k < arity; k++ {
			n *= L
		}
		in := make([][]float32, arity)
		for k, stride := 0, 1; k < arity; k, stride = k+1, stride*L {
			in[k] = make([]float32, n)
			for i := range in[k] {
				in[k][i] = kernels.LaneValues[i/stride%L]
			}
		}
		w, got := want(in, n), make([]float32, n)
		p.Apply(got, in)
		kernels.SameBits(t, p.Name+" all tuples", got, w)

		// The same lane through the primitive's node kernel, as two
		// launch ranges.
		k := nodeKernel(t, p.Name, 0).Kernel
		views := make([]ocl.View, arity+1)
		for i := range in {
			views[i] = ocl.View{Data: in[i], Elems: n, Width: 1}
		}
		out := make([]float32, n)
		views[arity] = ocl.View{Data: out, Elems: n, Width: 1}
		k.Passes[0](0, n/3, views)
		k.Passes[0](n/3, n, views)
		kernels.SameBits(t, k.Name+" all tuples", out, w)
	}
}
