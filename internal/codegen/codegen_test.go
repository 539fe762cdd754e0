package codegen

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
	"dfg/internal/expr"
	"dfg/internal/kernels"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/vm"
	"dfg/internal/vm/vmtest"
	"dfg/internal/vortex"
)

func testEnv() *ocl.Env {
	return ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
}

// runProgram binds sources from the given map, allocates scratch and
// output, launches the fused kernel over n elements and returns the
// downloaded output.
func runProgram(t *testing.T, p *Program, n int, sources map[string][]float32) []float32 {
	t.Helper()
	env := testEnv()
	bufs, out := bindProgram(t, env, p, n, sources)
	if err := env.Run(p.Kernel, n, bufs); err != nil {
		t.Fatal(err)
	}
	got, err := env.Download(out)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// bindProgram uploads p's sources from the given map and allocates its
// scratch and output buffers for n elements, in argument order.
func bindProgram(t *testing.T, env *ocl.Env, p *Program, n int, sources map[string][]float32) (bufs []*ocl.Buffer, out *ocl.Buffer) {
	t.Helper()
	bufs = make([]*ocl.Buffer, len(p.Args))
	for i, a := range p.Args {
		switch a.Kind {
		case ArgSource:
			data, ok := sources[a.Name]
			if !ok {
				t.Fatalf("missing source %q", a.Name)
			}
			b, err := env.Upload(a.Name, data, a.Width)
			if err != nil {
				t.Fatal(err)
			}
			bufs[i] = b
		case ArgScratch, ArgOut:
			b, err := env.NewBuffer(a.Name, n, a.Width)
			if err != nil {
				t.Fatal(err)
			}
			bufs[i] = b
			if a.Kind == ArgOut {
				out = b
			}
		}
	}
	return bufs, out
}

// TestShortSourceIsArgError: a launch whose source holds fewer float32s
// than the kernel reads over n cells — a field or coordinate array one
// element short, a dims descriptor of two — fails with an *ocl.ArgError
// naming that argument before any chunk runs, instead of panicking
// inside one.
func TestShortSourceIsArgError(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 8, NY: 6, NZ: 4}, 0.5, 0.25, 1)
	n := m.Cells()
	p, err := Build(gradientNetwork(t, 1), "gradc")
	if err != nil {
		t.Fatal(err)
	}
	for _, short := range []struct {
		name string
		keep int
	}{{"f", n - 1}, {"y", n - 1}, {"dims", 2}} {
		sources := meshSources(m, make([]float32, n))
		sources[short.name] = sources[short.name][:short.keep]
		env := testEnv()
		bufs, _ := bindProgram(t, env, p, n, sources)
		err := env.Run(p.Kernel, n, bufs)
		var ae *ocl.ArgError
		if !errors.As(err, &ae) || ae.Index < 0 || p.Args[ae.Index].Name != short.name {
			t.Fatalf("%s holding %d float32s: launch error %v, want an ArgError naming it", short.name, short.keep, err)
		}
	}
}

// buildVelMag builds sqrt(u*u + v*v + w*w).
func buildVelMag(t *testing.T) *dataflow.Network {
	t.Helper()
	nw := dftest.New()
	for _, s := range []string{"u", "v", "w"} {
		nw.AddSource(s)
	}
	uu, _ := nw.AddFilter("mul", "u", "u")
	vv, _ := nw.AddFilter("mul", "v", "v")
	ww, _ := nw.AddFilter("mul", "w", "w")
	s1, _ := nw.AddFilter("add", uu, vv)
	s2, _ := nw.AddFilter("add", s1, ww)
	out, _ := nw.AddFilter("sqrt", s2)
	if err := nw.SetOutput(out); err != nil {
		t.Fatal(err)
	}
	return nw.Network
}

func randomField(rng *rand.Rand, n int) []float32 {
	f := make([]float32, n)
	for i := range f {
		f[i] = rng.Float32()*4 - 2
	}
	return f
}

func TestFuseVelMag(t *testing.T) {
	nw := buildVelMag(t)
	p, err := Fuse(nw, "velmag")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPasses != 1 {
		t.Fatalf("velmag fuses into 1 pass, got %d", p.NumPasses)
	}
	// Args: u, v, w sources then out. No scratch.
	if len(p.Args) != 4 {
		t.Fatalf("want 4 args, got %v", p.Args)
	}
	for i, want := range []string{"u", "v", "w", "out"} {
		if p.Args[i].Name != want {
			t.Fatalf("arg %d = %q want %q", i, p.Args[i].Name, want)
		}
	}
	if p.Args[3].Kind != ArgOut {
		t.Fatal("last arg must be the output")
	}

	rng := rand.New(rand.NewSource(1))
	const n = 4096
	u, v, w := randomField(rng, n), randomField(rng, n), randomField(rng, n)
	got := runProgram(t, p, n, map[string][]float32{"u": u, "v": v, "w": w})
	want := vortex.VelocityMagnitude(u, v, w)
	for i := 0; i < n; i++ {
		if math.Abs(float64(got[i]-want[i])) > 1e-5 {
			t.Fatalf("fused velmag[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestFusedSourceShape(t *testing.T) {
	nw := buildVelMag(t)
	p, err := Fuse(nw, "velmag")
	if err != nil {
		t.Fatal(err)
	}
	src := p.Source
	for _, frag := range []string{
		"__kernel void kfused_velmag(",
		"__global const float *u",
		"__global float *out",
		"int gid = get_global_id(0);",
		"(u[gid] * u[gid])",
		"sqrt(",
		"out[gid] = ",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("generated source missing %q:\n%s", frag, src)
		}
	}
	if strings.Contains(src, "dfg_grad3d") {
		t.Error("velmag must not pull in the gradient function")
	}
	if strings.Count(src, "__kernel") != 1 {
		t.Error("single-pass fusion emits exactly one kernel entry")
	}
}

func TestConstantsCompiledIntoSource(t *testing.T) {
	// q = 0.5 * (a - b): the constant must appear as a source literal,
	// never as a buffer argument — the paper's "source-code level
	// insertion of constants".
	nw := dftest.New()
	nw.AddSource("a")
	nw.AddSource("b")
	c := nw.AddConst(0.5)
	d, _ := nw.AddFilter("sub", "a", "b")
	m, _ := nw.AddFilter("mul", c, d)
	nw.SetOutput(m)
	p, err := Fuse(nw.Network, "halfdiff")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Source, "0.5f") {
		t.Fatalf("constant not inlined:\n%s", p.Source)
	}
	if len(p.Args) != 3 { // a, b, out — no const buffer
		t.Fatalf("constants must not become buffer args: %v", p.Args)
	}
	a := []float32{1, 2, 3}
	b := []float32{0, 4, 1}
	got := runProgram(t, p, 3, map[string][]float32{"a": a, "b": b})
	for i, want := range []float32{0.5, -1, 1} {
		if got[i] != want {
			t.Fatalf("halfdiff[%d] = %v want %v", i, got[i], want)
		}
	}
}

// gradientNetwork builds w_x = dw[1] - dv[2] style computation:
// out = grad3d(f)[comp] using source coords.
func gradientNetwork(t *testing.T, comp int) *dataflow.Network {
	t.Helper()
	nw := dftest.New()
	for _, s := range []string{"f", "dims", "x", "y", "z"} {
		nw.AddSource(s)
	}
	g, err := nw.AddFilter("grad3d", "f", "dims", "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	d, err := nw.AddDecompose(g, comp)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetOutput(d)
	return nw.Network
}

func meshSources(m *mesh.Mesh, field []float32) map[string][]float32 {
	x, y, z := m.CellCenterFields()
	return map[string][]float32{
		"f":    field,
		"dims": kernels.DimsArray(m.Dims.NX, m.Dims.NY, m.Dims.NZ),
		"x":    x,
		"y":    y,
		"z":    z,
	}
}

func TestFuseGradientDecompose(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 8, NY: 6, NZ: 4}, 0.5, 0.25, 1)
	rng := rand.New(rand.NewSource(2))
	field := randomField(rng, m.Cells())
	want := mesh.Gradient3D(field, m)

	for comp := 0; comp < 3; comp++ {
		nw := gradientNetwork(t, comp)
		p, err := Fuse(nw, "gradc")
		if err != nil {
			t.Fatal(err)
		}
		if p.NumPasses != 1 {
			t.Fatalf("gradient of a source fuses into one pass, got %d", p.NumPasses)
		}
		if !strings.Contains(p.Source, ".s"+string(rune('0'+comp))) {
			t.Errorf("decompose must compile to vector component select .s%d:\n%s", comp, p.Source)
		}
		if !strings.Contains(p.Source, "float4 r") {
			t.Error("gradient result must live in a float4 register")
		}
		got := runProgram(t, p, m.Cells(), meshSources(m, field))
		for i := 0; i < m.Cells(); i++ {
			if math.Abs(float64(got[i]-want[4*i+comp])) > 1e-4 {
				t.Fatalf("comp %d cell %d: %v want %v", comp, i, got[i], want[4*i+comp])
			}
		}
	}
}

func TestMaterializationPassSplit(t *testing.T) {
	// out = grad3d(f*f)[0]: the stencil consumes a computed value, so the
	// generator must materialize f*f in global scratch and split passes —
	// the paper's Figure 2 fusion case (one extra problem-sized array).
	m := mesh.MustUniform(mesh.Dims{NX: 10, NY: 5, NZ: 3}, 0.3, 0.7, 0.9)
	rng := rand.New(rand.NewSource(4))
	field := randomField(rng, m.Cells())

	nw := dftest.New()
	for _, s := range []string{"f", "dims", "x", "y", "z"} {
		nw.AddSource(s)
	}
	sq, _ := nw.AddFilter("mul", "f", "f")
	g, err := nw.AddFilter("grad3d", sq, "dims", "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := nw.AddDecompose(g, 0)
	nw.SetOutput(d)

	p, err := Fuse(nw.Network, "gradsq")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPasses != 2 {
		t.Fatalf("materialization requires 2 passes, got %d", p.NumPasses)
	}
	scratch := 0
	for _, a := range p.Args {
		if a.Kind == ArgScratch {
			scratch++
		}
	}
	if scratch != 1 {
		t.Fatalf("want exactly 1 scratch array, got %d (%v)", scratch, p.Args)
	}
	if strings.Count(p.Source, "__kernel") != 2 {
		t.Fatalf("two passes emit two kernel entries:\n%s", p.Source)
	}

	got := runProgram(t, p, m.Cells(), meshSources(m, field))
	sq2 := make([]float32, m.Cells())
	for i, v := range field {
		sq2[i] = v * v
	}
	want := mesh.Gradient3D(sq2, m)
	for i := 0; i < m.Cells(); i++ {
		if math.Abs(float64(got[i]-want[4*i])) > 1e-4 {
			t.Fatalf("cell %d: %v want %v", i, got[i], want[4*i])
		}
	}
}

func TestFuseRejectsComputedCoords(t *testing.T) {
	nw := dftest.New()
	for _, s := range []string{"f", "dims", "x", "y", "z"} {
		nw.AddSource(s)
	}
	dd, _ := nw.AddFilter("mul", "dims", "dims")
	g, err := nw.AddFilter("grad3d", "f", dd, "x", "y", "z")
	if err != nil {
		t.Skip("network already rejects computed dims")
	}
	nw.SetOutput(g)
	if _, err := Fuse(nw.Network, "bad"); err == nil {
		t.Fatal("computed dims/coords must be rejected")
	}
}

func TestFuseOutputIsSource(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("u")
	nw.SetOutput("u")
	p, err := Fuse(nw.Network, "copy")
	if err != nil {
		t.Fatal(err)
	}
	got := runProgram(t, p, 3, map[string][]float32{"u": {7, 8, 9}})
	for i, want := range []float32{7, 8, 9} {
		if got[i] != want {
			t.Fatalf("copy[%d] = %v", i, got[i])
		}
	}
	if !strings.Contains(p.Source, "out[gid] = u[gid];") {
		t.Fatalf("trivial copy source wrong:\n%s", p.Source)
	}
}

func TestFuseOutputIsConst(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("u") // dead source
	c := nw.AddConst(2.5)
	nw.SetOutput(c)
	p, err := Fuse(nw.Network, "konst")
	if err != nil {
		t.Fatal(err)
	}
	// The dead source is pruned from the args.
	if len(p.Args) != 1 || p.Args[0].Kind != ArgOut {
		t.Fatalf("const output needs only the out arg, got %v", p.Args)
	}
	got := runProgram(t, p, 4, nil)
	for i := range got {
		if got[i] != 2.5 {
			t.Fatalf("const[%d] = %v", i, got[i])
		}
	}
}

func TestFuseErrors(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("u")
	if _, err := Fuse(nw.Network, "noout"); err == nil {
		t.Fatal("fusing a network without an output must fail")
	}
}

func TestFusedCostModel(t *testing.T) {
	nw := buildVelMag(t)
	p, err := Fuse(nw, "velmag")
	if err != nil {
		t.Fatal(err)
	}
	c := p.Kernel.Cost
	if c.Flops != 6 {
		t.Errorf("velmag fused flops = %v, want 6 (3 mul + 2 add + 1 sqrt)", c.Flops)
	}
	if c.LoadBytes != 12 {
		t.Errorf("velmag fused loads = %v B/elem, want 12 (u, v, w once each)", c.LoadBytes)
	}
	if c.StoreBytes != 4 {
		t.Errorf("velmag fused stores = %v B/elem, want 4 (result only)", c.StoreBytes)
	}
}

func TestVectorOutput(t *testing.T) {
	// The network output itself may be vector-valued (raw gradient).
	m := mesh.MustUniform(mesh.Dims{NX: 6, NY: 4, NZ: 3}, 1, 1, 1)
	rng := rand.New(rand.NewSource(9))
	field := randomField(rng, m.Cells())
	nw := dftest.New()
	for _, s := range []string{"f", "dims", "x", "y", "z"} {
		nw.AddSource(s)
	}
	g, _ := nw.AddFilter("grad3d", "f", "dims", "x", "y", "z")
	nw.SetOutput(g)
	p, err := Fuse(nw.Network, "rawgrad")
	if err != nil {
		t.Fatal(err)
	}
	if p.OutWidth != 4 {
		t.Fatalf("raw gradient output width = %d, want 4", p.OutWidth)
	}
	got := runProgram(t, p, m.Cells(), meshSources(m, field))
	want := mesh.Gradient3D(field, m)
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("rawgrad[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestArgKindString(t *testing.T) {
	if ArgSource.String() != "source" || ArgScratch.String() != "scratch" || ArgOut.String() != "out" {
		t.Fatal("arg kind names wrong")
	}
	if !strings.Contains(ArgKind(9).String(), "9") {
		t.Fatal("unknown arg kind should embed the value")
	}
}

// runReference evaluates the network on the per-element reference
// interpreter over the lowering's virtual registers and returns the
// (single) output.
func runReference(t *testing.T, net *dataflow.Network, n int, sources map[string][]float32) []float32 {
	t.Helper()
	low, err := vm.Lower(net)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]ocl.View, len(low.Buffers))
	var out []float32
	for i, b := range low.Buffers {
		data, ok := sources[b.Name]
		if b.Kind != vm.BufSource {
			data = make([]float32, n*b.Width)
			out = data
		} else if !ok {
			t.Fatalf("missing source %q", b.Name)
		}
		views[i] = ocl.View{Data: data, Elems: n, Width: b.Width}
	}
	vmtest.Reference(low, n, views)
	return out
}

// TestExecutionModesBitwiseEqual: the blocked executor behind the fused
// kernel performs the same float32 operations in the same order as the
// per-element reference interpreter, so results are bitwise identical.
func TestExecutionModesBitwiseEqual(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 11, NY: 9, NZ: 30}, 0.3, 0.5, 0.2)
	rng := rand.New(rand.NewSource(8))
	field := randomField(rng, m.Cells())

	// A network exercising every op family: gradient, decompose, norm,
	// comparisons, select, arithmetic, sqrt.
	nw := dftest.New()
	for _, s := range []string{"f", "dims", "x", "y", "z"} {
		nw.AddSource(s)
	}
	g, _ := nw.AddFilter("grad3d", "f", "dims", "x", "y", "z")
	nrm, _ := nw.AddFilter("norm", g)
	gx, _ := nw.AddDecompose(g, 0)
	gy, _ := nw.AddDecompose(g, 1)
	c, _ := nw.AddFilter("gt", gx, gy)
	absv, _ := nw.AddFilter("abs", gx)
	sq, _ := nw.AddFilter("sqrt", absv)
	sel, _ := nw.AddFilter("select", c, nrm, sq)
	half := nw.AddConst(0.5)
	out, _ := nw.AddFilter("mul", half, sel)
	nw.SetOutput(out)

	p, err := Fuse(nw.Network, "mix")
	if err != nil {
		t.Fatal(err)
	}
	src := meshSources(m, field)
	a := runProgram(t, p, m.Cells(), src)
	b := runReference(t, nw.Network, m.Cells(), src)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("executor and reference differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBlockedModePartialBlocks covers sizes that do not divide the block
// size (the final short block).
func TestBlockedModePartialBlocks(t *testing.T) {
	for _, n := range []int{1, 7, 255, 256, 257, 511, 512, 513, 1000} {
		nw := buildVelMag(t)
		p, err := Fuse(nw, "velmag")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		u, v, w := randomField(rng, n), randomField(rng, n), randomField(rng, n)
		got := runProgram(t, p, n, map[string][]float32{"u": u, "v": v, "w": w})
		want := vortex.VelocityMagnitude(u, v, w)
		for i := 0; i < n; i++ {
			if math.Abs(float64(got[i]-want[i])) > 1e-5 {
				t.Fatalf("n=%d: cell %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestAllPrimitivesThroughBothExecutors runs a network touching every
// elementwise primitive through the fused kernel's blocked executor and
// the per-element reference, and checks both against a direct host
// computation — covering every opcode in both interpreters.
func TestAllPrimitivesThroughBothExecutors(t *testing.T) {
	src := `s = u + v
d = u - v
p = u * v
q = u / (v + 10)
mn = min(u, v)
mx = max(u, v)
r = sqrt(abs(d))
n = -r
e = exp(-abs(s))
l = log(abs(p) + 1)
si = sin(u)
co = cos(v)
pw = pow(abs(u) + 0.5, 2)
c1 = u > v
c2 = u < v
c3 = u >= v
c4 = u <= v
c5 = u == v
c6 = u != v
sel = if (c1) then (mn) else (mx)
out = s + d + p + q + r + n + e + l + si + co + pw + c2 + c3 + c4 + c5 + c6 + sel`
	net, err := expr.Compile(src)
	if err != nil {
		t.Fatal(err)
	}

	const n = 777 // not a multiple of the block size
	rng := rand.New(rand.NewSource(13))
	u := randomField(rng, n)
	v := randomField(rng, n)
	want := make([]float32, n)
	for i := 0; i < n; i++ {
		a, b := u[i], v[i]
		s := a + b
		d := a - b
		p := a * b
		q := a / (b + 10)
		mn, mx := a, a
		if b < mn {
			mn = b
		}
		if b > mx {
			mx = b
		}
		r := float32(math.Sqrt(math.Abs(float64(d))))
		ng := -r
		e := float32(math.Exp(-math.Abs(float64(s))))
		l := float32(math.Log(math.Abs(float64(p)) + 1))
		si := float32(math.Sin(float64(a)))
		co := float32(math.Cos(float64(b)))
		pw := float32(math.Pow(math.Abs(float64(a))+0.5, 2))
		b2f := func(ok bool) float32 {
			if ok {
				return 1
			}
			return 0
		}
		sel := mx
		if a > b {
			sel = mn
		}
		want[i] = s + d + p + q + r + ng + e + l + si + co + pw +
			b2f(a < b) + b2f(a >= b) + b2f(a <= b) + b2f(a == b) + b2f(a != b) + sel
	}

	prog, err := Fuse(net, "allops")
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string][]float32{"u": u, "v": v}
	for mode, got := range map[string][]float32{
		"blocked":   runProgram(t, prog, n, sources),
		"reference": runReference(t, net, n, sources),
	} {
		for i := 0; i < n; i++ {
			if d := math.Abs(float64(got[i] - want[i])); d > 2e-4*(1+math.Abs(float64(want[i]))) {
				t.Fatalf("%v: cell %d: %v vs %v", mode, i, got[i], want[i])
			}
		}
	}
}
