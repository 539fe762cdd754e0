package dfg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dfg/internal/compile"
	"dfg/internal/ocl"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

func TestQuickstartEval(t *testing.T) {
	eng, err := New(Config{Device: CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	u := []float32{3, 1, 0}
	v := []float32{4, 2, 0}
	w := []float32{0, 2, 5}
	res, err := eng.Eval(VelocityMagnitudeExpr, 3, map[string][]float32{"u": u, "v": v, "w": w})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{5, 3, 5} {
		if math.Abs(float64(res.Data[i])-want) > 1e-6 {
			t.Fatalf("v_mag[%d] = %v want %v", i, res.Data[i], want)
		}
	}
	if res.Profile.Kernels != 1 {
		t.Fatalf("fusion should dispatch 1 kernel, got %d", res.Profile.Kernels)
	}
}

func TestEvalOnMeshAllExpressionsAllStrategiesBothDevices(t *testing.T) {
	m, err := NewUniformMesh(Dims{NX: 12, NY: 10, NZ: 8}, 0.1, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	f := GenerateRT(m, 11)
	golden := map[string][]float32{
		VelocityMagnitudeExpr:  vortex.VelocityMagnitude(f.U, f.V, f.W),
		VorticityMagnitudeExpr: vortex.VorticityMagnitude(f.U, f.V, f.W, m),
		QCriterionExpr:         vortex.QCriterion(f.U, f.V, f.W, m),
	}
	tol := map[string]float64{
		VelocityMagnitudeExpr:  1e-5,
		VorticityMagnitudeExpr: 1e-2,
		QCriterionExpr:         0.5, // Q is O(100) on this mesh; float32 chains
	}
	for _, dev := range []DeviceKind{CPU, GPU} {
		for _, strat := range Strategies() {
			eng, err := New(Config{Device: dev, Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			for text, want := range golden {
				res, err := eng.EvalOnMesh(text, m, FieldInputs(f))
				if err != nil {
					t.Fatalf("%v/%s: %v", dev, strat, err)
				}
				for i := range want {
					if d := math.Abs(float64(res.Data[i] - want[i])); d > tol[text] {
						t.Fatalf("%v/%s: cell %d: %v vs %v", dev, strat, i, res.Data[i], want[i])
					}
				}
			}
		}
	}
}

// TestMeshConstructorsRejectNonFinite: NaN and ±Inf spacing or
// coordinates — including a finite spacing whose far coordinate
// overflows — are errors, as are non-increasing coordinates.
func TestMeshConstructorsRejectNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	d := Dims{NX: 2, NY: 2, NZ: 2}
	for _, sp := range [][3]float32{
		{nan, 1, 1}, {1, nan, 1}, {1, 1, nan}, {inf, 1, 1}, {1, -inf, 1},
		{0, 1, 1}, {1, -1, 1}, {math.MaxFloat32, 1, 1},
	} {
		if _, err := NewUniformMesh(d, sp[0], sp[1], sp[2]); err == nil {
			t.Errorf("NewUniformMesh(spacing %v) accepted", sp)
		}
	}
	ok := []float32{0, 1, 2}
	for _, c := range [][]float32{
		{0, nan, 2}, {nan, 1, 2}, {0, 1, nan}, {0, 1, inf}, {-inf, 0, 1}, {0, 0, 1}, {0, 2, 1},
	} {
		for axis, xyz := range [][3][]float32{{c, ok, ok}, {ok, c, ok}, {ok, ok, c}} {
			if _, err := NewRectilinearMesh(xyz[0], xyz[1], xyz[2]); err == nil {
				t.Errorf("NewRectilinearMesh accepted %v on axis %d", c, axis)
			}
		}
	}
	if _, err := NewRectilinearMesh(ok, ok, ok); err != nil {
		t.Fatalf("NewRectilinearMesh on a valid grid: %v", err)
	}
}

// TestRectilinearUniformMatchesUniform: a rectilinear mesh given the
// coordinates a uniform one computes evaluates the stencil expressions
// bit for bit like the uniform mesh.
func TestRectilinearUniformMatchesUniform(t *testing.T) {
	d := Dims{NX: 9, NY: 7, NZ: 6}
	uni, err := NewUniformMesh(d, 0.125, 0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	axis := func(n int, h float32) []float32 {
		c := make([]float32, n+1)
		for i := range c {
			c[i] = float32(i) * h
		}
		return c
	}
	rect, err := NewRectilinearMesh(axis(d.NX, 0.125), axis(d.NY, 0.25), axis(d.NZ, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	fields := FieldInputs(GenerateRT(uni, 5))
	eng, err := New(Config{Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{GradientMagnitudeExpr, QCriterionExpr} {
		a, err := eng.EvalOnMesh(text, uni, fields)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.EvalOnMesh(text, rect, fields)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
				t.Fatalf("%q cell %d: uniform %v, rectilinear %v", text, i, a.Data[i], b.Data[i])
			}
		}
	}
}

func TestEngineCachesCompiledNetworks(t *testing.T) {
	eng, _ := New(Config{})
	n1, _, err := eng.comp.CompileTracedAt(VelocityMagnitudeExpr, eng.lvl, nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, _, err := eng.comp.CompileTracedAt(VelocityMagnitudeExpr, eng.lvl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatal("repeat compile must hit the cache")
	}
	if got := eng.comp.Stats().Compiles; got != 1 {
		t.Fatalf("repeat compile ran %d compilations, want 1", got)
	}
	if !n1.Sealed() {
		t.Fatal("compiled networks must be sealed")
	}
}

// TestEnginesShareCompiler: two engines built with NewWith on the same
// compiler share definitions and compile a hot expression exactly once.
func TestEnginesShareCompiler(t *testing.T) {
	comp := compile.NewCompiler()
	mk := func() *Engine {
		dev, err := NewDeviceFor(Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewWith(dev, "fusion", comp)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := mk(), mk()
	if err := a.Define("speed", "sqrt(u*u + v*v + w*w)"); err != nil {
		t.Fatal(err)
	}
	if got := b.Definitions(); len(got) != 1 || got[0] != "speed" {
		t.Fatalf("definition not shared: %v", got)
	}
	in := map[string][]float32{
		"u": {3, 0}, "v": {4, 0}, "w": {0, 0},
	}
	for _, eng := range []*Engine{a, b} {
		res, err := eng.Eval("s = speed", 2, in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(res.Data[0]-5)) > 1e-6 {
			t.Fatalf("speed = %v, want 5", res.Data[0])
		}
	}
	if got := comp.Stats().Compiles; got != 1 {
		t.Fatalf("two engines compiled the shared expression %d times, want 1", got)
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := New(Config{Strategy: "warp"}); err == nil {
		t.Error("bad strategy must fail")
	}
	if _, err := New(Config{Device: DeviceKind(9)}); err == nil {
		t.Error("bad device must fail")
	}
	eng, _ := New(Config{})
	if _, err := eng.Eval("a = $", 4, nil); err == nil {
		t.Error("bad expression must fail")
	}
	if _, err := eng.Eval("a = u + v", 4, map[string][]float32{"u": make([]float32, 4)}); err == nil {
		t.Error("missing input must fail")
	}
}

// TestEvalBadDimsIsError: dims that do not describe an N-cell mesh used
// to kill the process from inside a launch chunk's goroutine (a divide
// by zero for {0,0,0}, an index out of range for 64^3 over 16 384
// cells). They are a typed error from Eval, with recovery armed or not,
// at a size that fans out (16 384) and one that runs inline (64).
func TestEvalBadDimsIsError(t *testing.T) {
	const text = "g = grad3d(u, dims, x, y, z)\nr = g[0]"
	for _, n := range []int{16384, 64} {
		for _, dims := range [][]float32{{0, 0, 0, 0}, {64, 64, 64, 0}} {
			for _, armed := range []bool{false, true} {
				eng, err := New(Config{})
				if err != nil {
					t.Fatal(err)
				}
				if armed {
					eng.SetRecovery(1)
				}
				in := map[string][]float32{"dims": dims}
				for _, name := range []string{"u", "x", "y", "z"} {
					in[name] = make([]float32, n)
				}
				_, err = eng.Eval(text, n, in)
				var de *strategy.DimsError
				if !errors.As(err, &de) || de.Name != "dims" || de.N != n {
					t.Fatalf("N=%d dims=%v armed=%v: err = %v, want a DimsError", n, dims, armed, err)
				}
			}
		}
	}
}

func TestGPUMemoryFailureSurfaces(t *testing.T) {
	// A GPU scaled to 1/4096 of the M2050's memory cannot hold the
	// staged intermediates of Q-criterion on a big-enough grid.
	m, _ := NewUniformMesh(Dims{NX: 32, NY: 32, NZ: 32}, 1, 1, 1)
	f := GenerateRT(m, 1)
	eng, _ := New(Config{Device: GPU, Strategy: "staged", MemScale: 4096})
	_, err := eng.EvalOnMesh(QCriterionExpr, m, FieldInputs(f))
	if !errors.Is(err, ocl.ErrOutOfDeviceMemory) {
		t.Fatalf("want ErrOutOfDeviceMemory, got %v", err)
	}
}

func TestFusedSource(t *testing.T) {
	eng, _ := New(Config{})
	src, err := eng.FusedSource(QCriterionExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"__kernel void kfused_expr", "dfg_grad3d", "0.5f"} {
		if !strings.Contains(src, frag) {
			t.Errorf("fused Q-criterion source missing %q", frag)
		}
	}
}

func TestNetworkScriptAndDot(t *testing.T) {
	s, err := NetworkScript(VelocityMagnitudeExpr)
	if err != nil || !strings.Contains(s, "net.add_source(\"u\")") {
		t.Fatalf("script: %v\n%s", err, s)
	}
	d, err := NetworkDot(VelocityMagnitudeExpr)
	if err != nil || !strings.Contains(d, "digraph dataflow") {
		t.Fatalf("dot: %v\n%s", err, d)
	}
	if _, err := NetworkScript("$"); err == nil {
		t.Error("bad expression must fail")
	}
	if _, err := NetworkDot("$"); err == nil {
		t.Error("bad expression must fail")
	}
}

func TestDeviceKindString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("device kind names wrong")
	}
}

func TestNewWithDefaults(t *testing.T) {
	dev := ocl.NewDevice(ocl.TeslaM2050Spec(64))
	e1, err := NewWith(dev, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Strategy() != "fusion" {
		t.Fatalf("default strategy should be fusion, got %q", e1.Strategy())
	}
	if e1.Device() != "NVIDIA Tesla M2050" {
		t.Fatalf("device name %q", e1.Device())
	}
	if _, err := NewWith(dev, "bogus", nil); err == nil {
		t.Fatal("bad strategy must fail")
	}
}

func TestEngineStreamingStrategy(t *testing.T) {
	// The future-work streaming strategy is selectable through the
	// public API and matches fusion bitwise.
	m, _ := NewUniformMesh(Dims{NX: 16, NY: 16, NZ: 24}, 1.0/16, 1.0/16, 1.0/24)
	f := GenerateRT(m, 8)

	fu, _ := New(Config{Device: GPU, Strategy: "fusion", MemScale: 64})
	st, err := New(Config{Device: GPU, Strategy: "streaming", MemScale: 64})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fu.EvalOnMesh(QCriterionExpr, m, FieldInputs(f))
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.EvalOnMesh(QCriterionExpr, m, FieldInputs(f))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("streaming differs from fusion at %d", i)
		}
	}
	if got.Profile.Kernels <= want.Profile.Kernels {
		t.Fatal("streaming should dispatch one kernel per tile")
	}
	if got.PeakDeviceBytes >= want.PeakDeviceBytes {
		t.Fatal("streaming should reduce peak device memory")
	}
}

func TestEngineDefinitions(t *testing.T) {
	eng, _ := New(Config{})
	if err := eng.Define("speed", "sqrt(u*u + v*v + w*w)"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Define("ke", "0.5 * rho * speed * speed"); err != nil {
		t.Fatal(err)
	}
	got := eng.Definitions()
	if len(got) != 2 || got[0] != "ke" || got[1] != "speed" {
		t.Fatalf("definitions: %v", got)
	}

	u := []float32{3, 0}
	v := []float32{4, 0}
	w := []float32{0, 2}
	rho := []float32{2, 10}
	res, err := eng.Eval("e = ke", 2, map[string][]float32{"u": u, "v": v, "w": w, "rho": rho})
	if err != nil {
		t.Fatal(err)
	}
	// ke = 0.5 * rho * |v|^2: 0.5*2*25 = 25; 0.5*10*4 = 20.
	if res.Data[0] != 25 || res.Data[1] != 20 {
		t.Fatalf("kinetic energy wrong: %v", res.Data)
	}

	if err := eng.Define("", "u"); err == nil {
		t.Error("empty definition name must fail")
	}
	if err := eng.Define("bad", "$"); err == nil {
		t.Error("unparseable definition must fail")
	}

	// Redefinition invalidates the cache and changes results.
	if err := eng.Define("ke", "rho * speed"); err != nil {
		t.Fatal(err)
	}
	res2, err := eng.Eval("e = ke", 2, map[string][]float32{"u": u, "v": v, "w": w, "rho": rho})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Data[0] != 10 || res2.Data[1] != 20 {
		t.Fatalf("redefinition not picked up: %v", res2.Data)
	}
}

// TestComputedDimsRejectedAtPlanTime: a stencil's mesh extents and
// coordinates must be bound sources. A network that computes one is
// refused once, at plan time, with the same typed error on every
// strategy, solo and as a batch member. Staged and roundtrip used to run
// a computed coordinate and the other four to fail it untyped, inside
// the lowering. O2 folds `dims + -(0.0)` back to the source, so that
// spelling runs there; `dims + 0` is not an identity (it is +0 for -0).
func TestComputedDimsRejectedAtPlanTime(t *testing.T) {
	m, _ := NewUniformMesh(Dims{NX: 5, NY: 4, NZ: 3}, 1, 1, 1)
	fields := FieldInputs(GenerateRT(m, 8))
	inputs := []string{"u", "dims", "x", "y", "z"}
	for _, tc := range []struct {
		def                      string
		arg                      int    // the grad3d input d replaces: 1 dims, 2-4 x, y, z
		opt, stencil, computedBy string // computedBy "" means the network runs
	}{
		{"dims + -(0.0)", 1, "paper", "grad3d", "add"},
		{"dims + -(0.0)", 1, "O2", "", ""},
		{"dims + 0", 1, "O2", "grad3dx", "add"},
		{"sqrt(dims)", 1, "paper", "grad3d", "sqrt"},
		{"sqrt(dims)", 1, "O2", "grad3dx", "sqrt"}, // g[0] of grad3d, strength-reduced
		{"x + 0", 2, "paper", "grad3d", "add"},
		{"x * 2", 2, "O2", "grad3dx", "mul"},
		{"y + 0", 3, "paper", "grad3d", "add"},
		{"sqrt(z)", 4, "O2", "grad3dx", "sqrt"},
		{"z + -(0.0)", 4, "O2", "", ""},
	} {
		args := slices.Clone(inputs)
		args[tc.arg] = "d"
		text := "d = " + tc.def + "\ng = grad3d(" + strings.Join(args, ", ") + ")\nr = g[0]"
		want := ""
		switch {
		case tc.computedBy == "":
		case tc.arg == 1:
			want = (&strategy.ComputedDimsError{Stencil: tc.stencil, Input: tc.computedBy}).Error()
		default:
			want = fmt.Sprintf("strategy: %s takes its %s coordinates from a computed %s; they must be a bound source", tc.stencil, inputs[tc.arg], tc.computedBy)
		}
		for _, sname := range []string{"roundtrip", "staged", "fusion", "streaming", "vm", "tiered"} {
			eng, err := New(Config{Strategy: sname, Opt: tc.opt})
			if err != nil {
				t.Fatal(err)
			}
			_, solo := eng.EvalOnMesh(text, m, fields)
			_, batch := eng.Prepare(text, "q = u*u")
			for how, err := range map[string]error{"solo": solo, "batch": batch} {
				var ce *strategy.ComputedDimsError
				if got := errors.As(err, &ce); got != (want != "") || (got && err.Error() != want) || (want == "" && err != nil) {
					t.Errorf("%s %s %q as input %d %s: err = %v, want %q", tc.opt, sname, tc.def, tc.arg, how, err, want)
				}
			}
			if live := eng.LiveBuffers(); want != "" && live != 0 {
				t.Errorf("%s %s %q: %d buffers live after the refusal", tc.opt, sname, tc.def, live)
			}
		}
	}
}

// TestOverLongSourcesMatchFusion: a source longer than the work size is
// read for its first N elements only — by every strategy, one-shot,
// prepared and batched. Streaming used to window a source only when it
// held exactly N elements, so every tile read a longer one from its start
// ("a+b" over N = 3 gave [2 2 2] for [2 4 6]), and it recognised a
// stencil's extents only by the name "dims".
func TestOverLongSourcesMatchFusion(t *testing.T) {
	m, _ := NewUniformMesh(Dims{NX: 4, NY: 3, NZ: 6}, 0.5, 1, 0.25)
	n := m.Cells()
	rng := rand.New(rand.NewSource(3))
	long := func(head []float32) []float32 {
		out := append([]float32(nil), head...)
		for len(out) < len(head)+9 {
			out = append(out, rng.Float32()*100-50)
		}
		return out
	}
	a, b := make([]float32, n), make([]float32, n)
	for i := range a {
		a[i], b[i] = rng.Float32(), rng.Float32()
	}
	x, y, z := m.CellCenterFields()
	in := map[string][]float32{
		"a": long(a), "b": long(b), "x": long(x), "y": long(y), "z": long(z),
		"d": {4, 3, 6, 0, 7, 7},
	}
	texts := []string{"r = a + b", "g = grad3d(a, d, x, y, z)\nr = g[2] * b"}

	fu, err := New(Config{Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, len(texts))
	for i, text := range texts {
		res, err := fu.Eval(text, n, in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Data
	}
	for i, got := range want[0] {
		if len(want[0]) != n || got != a[i]+b[i] {
			t.Fatalf("fusion a+b = %v over %d elements, want the first %d sums", want[0], len(want[0]), n)
		}
	}
	check := func(how string, i int, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %q: %v", how, texts[i], err)
		}
		if len(res.Data) != n {
			t.Fatalf("%s %q: %d values, want %d", how, texts[i], len(res.Data), n)
		}
		for k := range res.Data {
			if math.Float32bits(res.Data[k]) != math.Float32bits(want[i][k]) {
				t.Fatalf("%s %q: element %d = %v, fusion %v", how, texts[i], k, res.Data[k], want[i][k])
			}
		}
	}
	for _, sname := range batchStrategies {
		eng, err := New(Config{Strategy: sname})
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range texts {
			res, err := eng.Eval(text, n, in)
			check(sname+" one-shot", i, res, err)
			p, err := eng.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			res, err = p.Eval(n, in)
			p.Close()
			check(sname+" prepared", i, res, err)
		}
		br, err := evalTexts(eng, texts, n, in)
		if err != nil {
			t.Fatalf("%s batch: %v", sname, err)
		}
		for i, res := range br.Members {
			check(sname+" batch", i, res, nil)
		}
	}
}

// TestZeroWorkSizeIsOneError: N = 0 is refused with the same error by
// every strategy and entry point.
func TestZeroWorkSizeIsOneError(t *testing.T) {
	const want = "strategy: global work size must be positive, got 0"
	in := map[string][]float32{"a": {1, 2}, "b": {3, 4}}
	texts := []string{"r = a + b", "r = a * b"}
	for _, sname := range batchStrategies {
		eng, err := New(Config{Strategy: sname})
		if err != nil {
			t.Fatal(err)
		}
		_, oneShot := eng.Eval(texts[0], 0, in)
		p, err := eng.Prepare(texts[0])
		if err != nil {
			t.Fatal(err)
		}
		_, prepared := p.Eval(0, in)
		p.Close()
		_, batch := evalTexts(eng, texts, 0, in)
		for how, err := range map[string]error{"one-shot": oneShot, "prepared": prepared, "batch": batch} {
			if err == nil || err.Error() != want {
				t.Errorf("%s %s: err = %v, want %q", sname, how, err, want)
			}
		}
	}
}
