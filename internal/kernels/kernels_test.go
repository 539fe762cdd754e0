package kernels

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
)

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
			k, err := ForFilter(tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			in := a
			if tc.filter == "sqrt" {
				in = []float32{1, 4, 9, 2.5, 0} // keep sqrt inputs non-negative
			}
			ba, _ := env.Upload("a", in, 1)
			out := outBuffer(t, env, len(in), 1)
			bufs := []*ocl.Buffer{ba, out}
			if tc.inputs == 2 {
				bb, _ := env.Upload("b", b, 1)
				bufs = []*ocl.Buffer{ba, bb, out}
			}
			if err := env.Run(k, len(in), bufs, nil); err != nil {
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

func TestForFilterErrors(t *testing.T) {
	if _, err := ForFilter("source"); err == nil {
		t.Error("source has no standalone kernel")
	}
	if _, err := ForFilter("bogus"); err == nil {
		t.Error("unknown filter must fail")
	}
}

func TestKernelSourcesWellFormed(t *testing.T) {
	// Every primitive ships real OpenCL C source with a kernel entry
	// point named after the filter. (dataflow's TestRegistry checks that
	// every registered filter is one of these.)
	names := []string{"norm", "decompose", "const", "grad3d", "grad3dx", "grad3dy", "grad3dz"}
	for _, p := range Primitives() {
		names = append(names, p.Name)
	}
	for _, name := range names {
		k, err := ForFilter(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(k.Source, "__kernel void "+k.Name) {
			t.Errorf("%s: source missing kernel entry point %q:\n%s", name, k.Name, k.Source)
		}
		if !strings.Contains(k.Source, "get_global_id(0)") {
			t.Errorf("%s: source does not index the ND-range", name)
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
		if err := env.Run(Decompose(), n, []*ocl.Buffer{in, out}, []float64{float64(comp)}); err != nil {
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

func TestConstFillKernel(t *testing.T) {
	env := testEnv()
	const n = 64
	out := outBuffer(t, env, n, 1)
	if err := env.Run(ConstFill(), n, []*ocl.Buffer{out}, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(out)
	for i := range got {
		if got[i] != 0.5 {
			t.Fatalf("const fill at %d: %v", i, got[i])
		}
	}
}

func TestGrad3DKernelMatchesMeshGradient(t *testing.T) {
	// Cross-validates the kernel's inline-centers stencil against the
	// independently written mesh.Gradient3D on a non-uniform mesh.
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
	bf, _ := env.Upload("f", field, 1)
	bd, _ := env.Upload("dims", DimsArray(m.Dims.NX, m.Dims.NY, m.Dims.NZ), 1)
	cx, cy, cz := m.CellCenterFields()
	bx, _ := env.Upload("x", cx, 1)
	by, _ := env.Upload("y", cy, 1)
	bz, _ := env.Upload("z", cz, 1)
	out := outBuffer(t, env, n, 4)
	if err := env.Run(Grad3D(), n, []*ocl.Buffer{bf, bd, bx, by, bz, out}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(out)
	for i := 0; i < 4*n; i++ {
		if !close32(float64(got[i]), float64(want[i]), 1e-4) {
			t.Fatalf("gradient mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestGradAtDegenerateAxes(t *testing.T) {
	// 1x1x1 mesh: all gradient components must be zero.
	gx, gy, gz := GradAt([]float32{5}, []float32{0.5}, []float32{0.5}, []float32{0.5}, 1, 1, 1, 0)
	if gx != 0 || gy != 0 || gz != 0 {
		t.Fatalf("degenerate gradient must be zero: %v %v %v", gx, gy, gz)
	}
}

// TestGradRowsMatchesGradAt is the row walker's property test: over
// random meshes — every combination of 1-cell, 2-cell and longer axes —
// with non-uniform (and occasionally coincident) coordinates and fields
// salted with NaN, infinities, denormals and signed zeros, every window
// [base, base+len) that GradRows fills must equal the per-element
// oracle bit for bit. Windows start mid-row, end mid-row and straddle
// row and plane boundaries. The standalone kernels, which reach the
// walker through launch ranges, are held to the same oracle. Long axes
// reach 26 cells, so rows run the 8-wide body of diffRow several times
// and leave a tail; the whole property holds with and without it.
func TestGradRowsMatchesGradAt(t *testing.T) { eachDispatch(t, gradRowsMatchesGradAt) }

func gradRowsMatchesGradAt(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1e-42, -1e-42, 0, float32(math.Copysign(0, -1)), math.MaxFloat32,
	}
	salted := func(n int, p float64) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32()*8 - 4
			if rng.Float64() < p {
				v[i] = special[rng.Intn(len(special))]
			}
		}
		return v
	}
	extent := func(class int) int { // 0: one cell, 1: two cells, 2: longer
		if class < 2 {
			return class + 1
		}
		return 3 + rng.Intn(24)
	}
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

	for combo := 0; combo < 27; combo++ {
		for trial := 0; trial < 4; trial++ {
			nx, ny, nz := extent(combo%3), extent(combo/3%3), extent(combo/9)
			n := nx * ny * nz
			// Per-cell centers of a non-uniform rectilinear mesh, with a
			// few coincident neighbours (zero spacing) salted in.
			axis := func(m int) []float32 {
				c := make([]float32, m)
				at := rng.Float32()
				for i := range c {
					c[i] = at
					if rng.Intn(8) > 0 {
						at += 0.1 + rng.Float32()
					}
				}
				return c
			}
			ax, ay, az := axis(nx), axis(ny), axis(nz)
			coords := [3][]float32{make([]float32, n), make([]float32, n), make([]float32, n)}
			for idx := 0; idx < n; idx++ {
				coords[0][idx], coords[1][idx], coords[2][idx] = ax[idx%nx], ay[idx/nx%ny], az[idx/(nx*ny)]
			}
			field := salted(n, 0.1)

			want := [3][]float32{make([]float32, n), make([]float32, n), make([]float32, n)}
			for idx := 0; idx < n; idx++ {
				want[0][idx], want[1][idx], want[2][idx] = GradAt(field, coords[0], coords[1], coords[2], nx, ny, nz, idx)
				for a := 0; a < 3; a++ {
					if g := GradAxisAt(field, coords[0], coords[1], coords[2], nx, ny, nz, idx, a); !same(g, want[a][idx]) {
						t.Fatalf("%dx%dx%d cell %d axis %d: the oracles disagree: %v vs %v", nx, ny, nz, idx, a, g, want[a][idx])
					}
				}
			}

			windows := [][2]int{{0, n}, {0, 0}, {n, n}, {n - 1, n}}
			for w := 0; w < 40; w++ {
				lo := rng.Intn(n)
				windows = append(windows, [2]int{lo, lo + rng.Intn(n-lo+1)})
			}
			for r := 0; r+nx <= n; r += nx { // one cell either side of every row end
				windows = append(windows, [2]int{r, r + nx}, [2]int{max(r-1, 0), min(r+nx+1, n)})
			}
			for _, w := range windows {
				lo, hi := w[0], w[1]
				for a := 0; a < 3; a++ {
					// Guard cells either side catch a write outside dst.
					buf := make([]float32, hi-lo+2)
					buf[0], buf[len(buf)-1] = 77, 77
					GradRows(buf[1:len(buf)-1], field, coords[a], a, nx, ny, nz, lo)
					if buf[0] != 77 || buf[len(buf)-1] != 77 {
						t.Fatalf("%dx%dx%d axis %d [%d,%d): wrote outside dst", nx, ny, nz, a, lo, hi)
					}
					for e, g := range buf[1 : len(buf)-1] {
						if !same(g, want[a][lo+e]) {
							t.Fatalf("%dx%dx%d axis %d window [%d,%d) cell %d: GradRows %v (%#x), GradAt %v (%#x)",
								nx, ny, nz, a, lo, hi, lo+e, g, math.Float32bits(g), want[a][lo+e], math.Float32bits(want[a][lo+e]))
						}
					}
				}
			}

			// The standalone kernels over a split launch range.
			views := []ocl.View{{Data: field}, {Data: DimsArray(nx, ny, nz)},
				{Data: coords[0]}, {Data: coords[1]}, {Data: coords[2]}, {}}
			cut := rng.Intn(n + 1)
			out4 := make([]float32, 4*n)
			views[5].Data = out4
			Grad3D().Fn(0, cut, views, nil)
			Grad3D().Fn(cut, n, views, nil)
			for idx := 0; idx < n; idx++ {
				for a := 0; a < 3; a++ {
					if !same(out4[4*idx+a], want[a][idx]) {
						t.Fatalf("%dx%dx%d kgrad3d cell %d axis %d (cut %d): %v vs %v", nx, ny, nz, idx, a, cut, out4[4*idx+a], want[a][idx])
					}
				}
				if out4[4*idx+3] != 0 {
					t.Fatalf("kgrad3d cell %d: pad lane %v", idx, out4[4*idx+3])
				}
			}
			for a := 0; a < 3; a++ {
				out := make([]float32, n)
				views[5].Data = out
				GradAxis(a).Fn(0, cut, views, nil)
				GradAxis(a).Fn(cut, n, views, nil)
				for idx := range out {
					if !same(out[idx], want[a][idx]) {
						t.Fatalf("%dx%dx%d kgrad3d%c cell %d (cut %d): %v vs %v", nx, ny, nz, 'x'+a, idx, cut, out[idx], want[a][idx])
					}
				}
			}
		}
	}
}

// TestGradRowsRejectsBadGeometry: extents below one or a window past the
// mesh are a caller bug the walker reports once, by panicking, rather
// than looping forever on an empty row or reading a neighbour that is
// not there.
func TestGradRowsRejectsBadGeometry(t *testing.T) {
	f := make([]float32, 8)
	for _, c := range []struct{ nx, ny, nz, base, n int }{
		{0, 2, 4, 0, 8}, {2, 0, 4, 0, 8}, {2, 2, 0, 0, 8}, {-2, -2, 2, 0, 8},
		{2, 2, 2, 1, 8}, {2, 2, 1, 0, 8}, {2, 2, 2, -1, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GradRows accepted %+v", c)
				}
			}()
			GradRows(make([]float32, c.n), f, f, 1, c.nx, c.ny, c.nz, c.base)
		}()
	}
}

func TestDimsArray(t *testing.T) {
	d := DimsArray(3, 5, 7)
	if len(d) != 4 || d[0] != 3 || d[1] != 5 || d[2] != 7 || d[3] != 0 {
		t.Fatalf("dims array wrong: %v", d)
	}
}

func TestExprTemplateCoversElementwisePrimitives(t *testing.T) {
	// Every row is a registered elementwise filter with the same arity,
	// one %s per operand and one lane body. (dataflow's TestRegistry
	// checks that every elementwise filter has a row.)
	for _, p := range Primitives() {
		f, ok := dataflow.Callable(p.Name)
		if !ok {
			t.Errorf("%q: no callable registry row", p.Name)
			continue
		}
		fi := f.Info()
		if fi.Class != dataflow.ClassElementwise || fi.OutWidth != 1 {
			t.Errorf("%q: row %+v, registry %+v", p.Name, p, fi)
			continue
		}
		if q, _ := Lookup(p.Name); q.Name != p.Name {
			t.Errorf("%q: Lookup returns row %q", p.Name, q.Name)
		}
		// Exactly the lane body of the row's arity is set.
		bodies := [4]bool{1: p.Unary != nil, 2: p.Binary != nil, 3: p.Ternary != nil}
		want := [4]bool{}
		want[fi.Arity] = true
		if bodies != want || p.Arity != fi.Arity || strings.Count(p.Expr, "%s") != fi.Arity || strings.Count(p.Expr, "%") != fi.Arity {
			t.Errorf("%q: lane bodies %v, arity %d, template %q; the registry says arity %d", p.Name, bodies[1:], p.Arity, p.Expr, fi.Arity)
		}
	}
}

func TestGrad3DSourceSharedWithKernel(t *testing.T) {
	// The standalone kernel source embeds the shared primitive function
	// verbatim — "written once and shared by all execution strategies".
	k := Grad3D()
	if !strings.Contains(k.Source, Grad3DFunction) {
		t.Fatal("kgrad3d source must embed the shared Grad3DFunction")
	}
	if c := strings.Count(Grad3DFunction, "\n"); c < 50 {
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
		k, err := ForFilter(name)
		if err != nil {
			t.Fatal(err)
		}
		ba, _ := env.Upload("a", a, 1)
		bb, _ := env.Upload("b", b, 1)
		out := outBuffer(t, env, len(a), 1)
		if err := env.Run(k, len(a), []*ocl.Buffer{ba, bb, out}, nil); err != nil {
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
	bc, _ := env.Upload("c", cond, 1)
	ba, _ := env.Upload("a", a, 1)
	bb, _ := env.Upload("b", b, 1)
	out := outBuffer(t, env, 4, 1)
	k, err := ForFilter("select")
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Run(k, 4, []*ocl.Buffer{bc, ba, bb, out}, nil); err != nil {
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
	if err := env.Run(Norm(), 2, []*ocl.Buffer{in, out}, nil); err != nil {
		t.Fatal(err)
	}
	got, _ := env.Download(out)
	if !close32(float64(got[0]), 5, 1e-6) || !close32(float64(got[1]), 3, 1e-6) {
		t.Fatalf("norm = %v, want [5 3] (s3 lane must be ignored)", got)
	}
}

// TestNormIsFloatArithmetic pins Norm's Fn to what its source says —
// float squares, a left-to-right float sum, sqrtf — against a float32
// loop spelled here, over every triple of special values (signed zeros,
// infinities, NaN, denormals, squares that underflow or overflow) and
// random vectors. The random ones must include a vector where the
// float64 sum the kernel once used rounds differently, or the pin would
// not tell the two apart.
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
	Norm().Fn(0, n, []ocl.View{{Data: vec, Elems: n, Width: 4}, {Data: out, Elems: n, Width: 1}}, nil)
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

func TestCostAccessors(t *testing.T) {
	add, err := ForFilter("add")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]ocl.Cost{"grad": GradCost(), "gradaxis": GradAxisCost()} {
		if c.StoreBytes <= 0 {
			t.Errorf("%s cost must store at least its output: %+v", name, c)
		}
		if c.Flops <= add.Cost.Flops {
			t.Errorf("%s must cost more than an add: %+v", name, c)
		}
	}
}
