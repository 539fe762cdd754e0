package strategy

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
	"dfg/internal/expr"
	"dfg/internal/kernels"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/vortex"
)

func cpuEnv() *ocl.Env {
	return ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
}

// buildVelMag: v_mag = sqrt(u*u + v*v + w*w).
func buildVelMag(t testing.TB) *dataflow.Network {
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

// buildGradMag: |grad(f)| via grad3d + decompose, exercising stencil,
// decompose and a constant (out = 0.5 * sqrt(gx^2+gy^2+gz^2) * 2).
func buildGradExpr(t testing.TB) *dataflow.Network {
	t.Helper()
	nw := dftest.New()
	for _, s := range []string{"f", "dims", "x", "y", "z"} {
		nw.AddSource(s)
	}
	g, err := nw.AddFilter("grad3d", "f", "dims", "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	gx, _ := nw.AddDecompose(g, 0)
	gy, _ := nw.AddDecompose(g, 1)
	gz, _ := nw.AddDecompose(g, 2)
	xx, _ := nw.AddFilter("mul", gx, gx)
	yy, _ := nw.AddFilter("mul", gy, gy)
	zz, _ := nw.AddFilter("mul", gz, gz)
	s1, _ := nw.AddFilter("add", xx, yy)
	s2, _ := nw.AddFilter("add", s1, zz)
	rt, _ := nw.AddFilter("sqrt", s2)
	half := nw.AddConst(0.5)
	two := nw.AddConst(2.0)
	hm, _ := nw.AddFilter("mul", half, rt)
	out, _ := nw.AddFilter("mul", two, hm)
	if err := nw.SetOutput(out); err != nil {
		t.Fatal(err)
	}
	return nw.Network
}

func velMagBindings(rng *rand.Rand, n int) (Bindings, []float32, []float32, []float32) {
	mk := func() []float32 {
		f := make([]float32, n)
		for i := range f {
			f[i] = rng.Float32()*4 - 2
		}
		return f
	}
	u, v, w := mk(), mk(), mk()
	return Bindings{
		N: n,
		Sources: map[string]Source{
			"u": {Data: u, Width: 1},
			"v": {Data: v, Width: 1},
			"w": {Data: w, Width: 1},
		},
	}, u, v, w
}

func gradBindings(m *mesh.Mesh, f []float32) Bindings {
	x, y, z := m.CellCenterFields()
	return Bindings{
		N: m.Cells(),
		Sources: map[string]Source{
			"f":    {Data: f, Width: 1},
			"dims": {Data: kernels.DimsArray(m.Dims.NX, m.Dims.NY, m.Dims.NZ), Width: 1},
			"x":    {Data: x, Width: 1},
			"y":    {Data: y, Width: 1},
			"z":    {Data: z, Width: 1},
		},
	}
}

func TestAllStrategiesAgreeOnVelMag(t *testing.T) {
	nw := buildVelMag(t)
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	bind, u, v, w := velMagBindings(rng, n)
	want := vortex.VelocityMagnitude(u, v, w)

	for _, name := range Names() {
		s, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		env := cpuEnv()
		res, err := Execute(s, env, nw, bind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Width != 1 || len(res.Data) != n {
			t.Fatalf("%s: result shape %d x %d", name, len(res.Data), res.Width)
		}
		for i := 0; i < n; i++ {
			if math.Abs(float64(res.Data[i]-want[i])) > 1e-5 {
				t.Fatalf("%s: velmag[%d] = %v want %v", name, i, res.Data[i], want[i])
			}
		}
		if env.Context().LiveBuffers() != 0 {
			t.Fatalf("%s: leaked %d device buffers", name, env.Context().LiveBuffers())
		}
	}
}

func TestAllStrategiesAgreeOnGradientExpression(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 12, NY: 8, NZ: 6}, 0.5, 0.25, 0.75)
	rng := rand.New(rand.NewSource(2))
	f := make([]float32, m.Cells())
	for i := range f {
		f[i] = rng.Float32()
	}
	nw := buildGradExpr(t)
	bind := gradBindings(m, f)

	grad := mesh.Gradient3D(f, m)
	want := make([]float32, m.Cells())
	for i := range want {
		gx, gy, gz := float64(grad[4*i]), float64(grad[4*i+1]), float64(grad[4*i+2])
		want[i] = float32(math.Sqrt(gx*gx + gy*gy + gz*gz))
	}

	for _, name := range Names() {
		s, _ := ForName(name)
		env := cpuEnv()
		res, err := Execute(s, env, nw, bind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if math.Abs(float64(res.Data[i]-want[i])) > 1e-4 {
				t.Fatalf("%s: |grad|[%d] = %v want %v", name, i, res.Data[i], want[i])
			}
		}
		if env.Context().LiveBuffers() != 0 {
			t.Fatalf("%s: leaked buffers", name)
		}
	}
}

// TestTableIIVelMagRow pins the paper's Table II velocity-magnitude
// counts exactly: roundtrip 11/6/6, staged 3/1/6, fusion 3/1/1.
func TestTableIIVelMagRow(t *testing.T) {
	nw := buildVelMag(t)
	rng := rand.New(rand.NewSource(3))
	bind, _, _, _ := velMagBindings(rng, 1000)

	want := map[string][3]int{
		"roundtrip": {11, 6, 6},
		"staged":    {3, 1, 6},
		"fusion":    {3, 1, 1},
	}
	for name, counts := range want {
		s, _ := ForName(name)
		res, err := Execute(s, cpuEnv(), nw, bind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := res.Profile
		if p.Writes != counts[0] || p.Reads != counts[1] || p.Kernels != counts[2] {
			t.Errorf("%s: Dev-W/Dev-R/K-Exe = %d/%d/%d, Table II says %d/%d/%d",
				name, p.Writes, p.Reads, p.Kernels, counts[0], counts[1], counts[2])
		}
	}
}

// TestVelMagMemoryShape pins Figure 2/6 behaviour for velocity
// magnitude: roundtrip peaks at 3 problem-sized arrays (inputs+output of
// one mul), staged and fusion at 4 (all inputs + output).
func TestVelMagMemoryShape(t *testing.T) {
	nw := buildVelMag(t)
	rng := rand.New(rand.NewSource(4))
	const n = 10000
	bind, _, _, _ := velMagBindings(rng, n)
	arr := int64(n * 4)

	peaks := map[string]int64{}
	for _, name := range Names() {
		s, _ := ForName(name)
		res, err := Execute(s, cpuEnv(), nw, bind)
		if err != nil {
			t.Fatal(err)
		}
		peaks[name] = res.PeakBytes
	}
	if peaks["roundtrip"] != 3*arr {
		t.Errorf("roundtrip velmag peak = %d, want 3 arrays (%d)", peaks["roundtrip"], 3*arr)
	}
	if peaks["fusion"] != 4*arr {
		t.Errorf("fusion velmag peak = %d, want 4 arrays (%d)", peaks["fusion"], 4*arr)
	}
	if peaks["staged"] != 4*arr {
		t.Errorf("staged velmag peak = %d, want 4 arrays (%d)", peaks["staged"], 4*arr)
	}
	if !(peaks["roundtrip"] < peaks["staged"]) {
		t.Error("roundtrip must use the least memory for velmag (paper Fig. 6)")
	}
}

// TestGradientMemoryShape pins the Figure 6 ordering for
// gradient-based expressions: staged holds whole chains of
// intermediates (largest peak), roundtrip peaks at the gradient
// kernel's working set, fusion at inputs + output only.
func TestGradientMemoryShape(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 16, NY: 16, NZ: 8}, 1, 1, 1)
	f := make([]float32, m.Cells())
	for i := range f {
		f[i] = float32(i % 17)
	}
	nw := buildGradExpr(t)
	bind := gradBindings(m, f)
	n := int64(m.Cells() * 4)

	peaks := map[string]int64{}
	for _, name := range Names() {
		s, _ := ForName(name)
		res, err := Execute(s, cpuEnv(), nw, bind)
		if err != nil {
			t.Fatal(err)
		}
		peaks[name] = res.PeakBytes
	}
	// roundtrip peak: grad kernel holds f + dims + x + y + z + float4 out
	// = 4N + 4 small + 4N... f,x,y,z = 4 arrays + out 4N = 8 arrays + dims.
	wantRT := 8*n + 16
	if peaks["roundtrip"] != wantRT {
		t.Errorf("roundtrip peak = %d, want %d (grad kernel working set)", peaks["roundtrip"], wantRT)
	}
	// fusion peak: sources f,x,y,z (4N) + dims + out (N) = 5 arrays + dims.
	wantFU := 5*n + 16
	if peaks["fusion"] != wantFU {
		t.Errorf("fusion peak = %d, want %d (inputs + output)", peaks["fusion"], wantFU)
	}
	if !(peaks["staged"] > peaks["roundtrip"] && peaks["roundtrip"] > peaks["fusion"]) {
		t.Errorf("memory ordering must be staged > roundtrip > fusion, got %v", peaks)
	}
}

// TestStagedFailsOnSmallGPU reproduces the paper's failed GPU test
// cases: on a device too small for staged's intermediates, Execute
// returns an out-of-memory error, releases everything, and the same
// network still runs under roundtrip (the least constrained strategy).
func TestStagedFailsOnSmallGPU(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 32, NY: 32, NZ: 16}, 1, 1, 1)
	f := make([]float32, m.Cells())
	nw := buildGradExpr(t)
	bind := gradBindings(m, f)

	// Size the device between roundtrip's peak (8 arrays) and staged's.
	arr := int64(m.Cells() * 4)
	spec := ocl.TeslaM2050Spec(1)
	spec.GlobalMemSize = 9 * arr
	spec.MaxAllocSize = 9 * arr
	dev := ocl.NewDevice(spec)

	env := ocl.NewEnv(dev)
	_, err := Execute(Strategy{Kind: Staged}, env, nw, bind)
	if !errors.Is(err, ocl.ErrOutOfDeviceMemory) {
		t.Fatalf("staged on small GPU: want ErrOutOfDeviceMemory, got %v", err)
	}
	if env.Context().LiveBuffers() != 0 {
		t.Fatalf("failed staged run leaked %d buffers", env.Context().LiveBuffers())
	}

	env2 := ocl.NewEnv(dev)
	if _, err := Execute(Strategy{Kind: Roundtrip}, env2, nw, bind); err != nil {
		t.Fatalf("roundtrip must fit where staged fails: %v", err)
	}
}

func TestForName(t *testing.T) {
	for _, name := range Names() {
		s, err := ForName(name)
		if err != nil || s.Name() != name {
			t.Fatalf("ForName(%q) = %v, %v", name, s, err)
		}
	}
	for _, name := range []string{"warp", "fusion+tiled"} {
		if _, err := ForName(name); err == nil {
			t.Fatalf("unknown strategy %q must fail", name)
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	nw := buildVelMag(t)
	rng := rand.New(rand.NewSource(5))
	bind, _, _, _ := velMagBindings(rng, 100)

	for _, name := range Names() {
		s, _ := ForName(name)
		// Zero work size.
		if _, err := Execute(s, cpuEnv(), nw, Bindings{N: 0, Sources: bind.Sources}); err == nil {
			t.Errorf("%s: zero N must fail", name)
		}
		// Missing source binding.
		bad := Bindings{N: 100, Sources: map[string]Source{"u": bind.Sources["u"]}}
		if _, err := Execute(s, cpuEnv(), nw, bad); err == nil {
			t.Errorf("%s: missing binding must fail", name)
		}
		// Network without output.
		empty := dftest.New()
		empty.AddSource("u")
		if _, err := Execute(s, cpuEnv(), empty.Network, bind); err == nil {
			t.Errorf("%s: network without output must fail", name)
		}
	}
}

func TestResultIncludesEventLog(t *testing.T) {
	nw := buildVelMag(t)
	rng := rand.New(rand.NewSource(6))
	bind, _, _, _ := velMagBindings(rng, 256)
	res, err := Execute(Strategy{Kind: Fusion}, cpuEnv(), nw, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != res.Profile.Events() {
		t.Fatalf("event log (%d) and profile (%d) disagree", len(res.Events), res.Profile.Events())
	}
	// Fusion event order: 3 writes, 1 kernel, 1 read.
	kinds := []ocl.EventKind{ocl.WriteEvent, ocl.WriteEvent, ocl.WriteEvent, ocl.KernelEvent, ocl.ReadEvent}
	for i, e := range res.Events {
		if e.Kind != kinds[i] {
			t.Fatalf("event %d kind %v, want %v", i, e.Kind, kinds[i])
		}
	}
}

func TestGeneratedSource(t *testing.T) {
	nw := buildVelMag(t)
	src, err := GeneratedSource(nw, "vm")
	if err != nil {
		t.Fatal(err)
	}
	if len(src) == 0 {
		t.Fatal("empty generated source")
	}
	if _, err := GeneratedSource(dataflow.NewNetwork(), "bad"); err == nil {
		t.Fatal("network without output must fail")
	}
}

// TestPlannedFusionRendersGolden: a fusion or streaming plan builds its
// fused kernel without source text, and the program it retains renders
// the Q-criterion golden file byte for byte on read.
func TestPlannedFusionRendersGolden(t *testing.T) {
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../codegen/testdata/qcrit_fused.cl")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{{Kind: Fusion}, {Kind: Streaming, Tiles: 4}} {
		plan, err := s.Plan(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		var prog *codegen.Program
		switch p := plan.(type) {
		case *devicePlan:
			prog = p.prog
		case *streamingPlan:
			prog = p.prog
		}
		if prog.Source != "" || prog.Kernel.Source != "" {
			t.Errorf("%s: planning rendered the source", s.Name())
		}
		if got := prog.Render(); got != string(want) {
			t.Errorf("%s: the planned program renders other text than qcrit_fused.cl:\n%s", s.Name(), got)
		}
	}
}

// TestStrategiesAgreeOnRandomNetworks is the core cross-strategy
// property test: on randomly composed elementwise networks, the three
// strategies produce identical float32 results.
func TestStrategiesAgreeOnRandomNetworks(t *testing.T) {
	elementwise := []string{"add", "sub", "mul", "min", "max"}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		nw := dftest.New()
		ids := []string{}
		for i := 0; i < 3; i++ {
			id, _ := nw.AddSource(string(rune('a' + i)))
			ids = append(ids, id)
		}
		for i := 0; i < 3+rng.Intn(20); i++ {
			switch rng.Intn(5) {
			case 0:
				ids = append(ids, nw.AddConst(float64(rng.Intn(5))-2))
			case 1:
				id, _ := nw.AddFilter("abs", ids[rng.Intn(len(ids))])
				ids = append(ids, id)
			default:
				op := elementwise[rng.Intn(len(elementwise))]
				id, _ := nw.AddFilter(op, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
				ids = append(ids, id)
			}
		}
		nw.SetOutput(ids[len(ids)-1])
		if _, err := passes.Paper.Run(nw.Network); err != nil {
			t.Fatal(err)
		}

		const n = 500
		bind, _, _, _ := velMagBindings(rng, n)
		bind.Sources = map[string]Source{
			"a": bind.Sources["u"], "b": bind.Sources["v"], "c": bind.Sources["w"],
		}

		var ref []float32
		for _, name := range Names() {
			s, _ := ForName(name)
			res, err := Execute(s, cpuEnv(), nw.Network, bind)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if ref == nil {
				ref = res.Data
				continue
			}
			for i := range ref {
				if !sameClass(res.Data[i], ref[i]) {
					t.Fatalf("trial %d %s: result[%d] = %v differs from %v", trial, name, i, res.Data[i], ref[i])
				}
			}
		}
	}
}
