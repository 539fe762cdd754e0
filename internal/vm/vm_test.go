package vm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/kernels"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/vortex"
)

// meshSources builds a SourceFn over a generated turbulence field.
func meshSources(t testing.TB, d mesh.Dims) (SourceFn, int) {
	t.Helper()
	m := mesh.MustUniform(d, 1, 1, 1)
	f := rtsim.Generate(m, rtsim.Options{Seed: 3})
	x, y, z := m.CellCenterFields()
	src := map[string][]float32{
		"u": f.U, "v": f.V, "w": f.W,
		"dims": kernels.DimsArray(d.NX, d.NY, d.NZ),
		"x":    x, "y": y, "z": z,
	}
	return func(name string) ([]float32, error) {
		data, ok := src[name]
		if !ok {
			return nil, fmt.Errorf("no binding for %q", name)
		}
		return data, nil
	}, m.Cells()
}

func compileText(t testing.TB, text string) *Program {
	t.Helper()
	net, err := expr.Compile(text)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// compileAt compiles text through the pass pipeline of lvl.
func compileAt(t testing.TB, text string, lvl passes.Level) *Program {
	t.Helper()
	net, _, err := expr.CompileWithPipeline(text, nil, passes.ForLevel(lvl), passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestExecutedInstructionCounts pins the steps RunPass runs per block, per
// pass, for the paper's three expressions and the two-pass gradient
// magnitude at both levels. The lowering of Paper Q-criterion has 68
// instructions (3 grad3d, 9 decompose, 1 const, 54 binary, 1 store) and
// O2's 56; the view runs 20 and 29. A peephole or operand form that stops
// firing fails here.
func TestExecutedInstructionCounts(t *testing.T) {
	for _, c := range []struct {
		name      string
		text      string
		paper, o2 []int
	}{
		{"VelMag", vortex.VelMagExpr, []int{3}, []int{3}},
		{"VortMag", vortex.VortMagExpr, []int{9}, []int{12}},
		{"Q-Crit", vortex.QCritExpr, []int{20}, []int{29}},
		{"GradMag", vortex.GradMagExpr, []int{3, 2}, []int{3, 2}},
	} {
		for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
			want := c.paper
			if lvl == passes.LevelO2 {
				want = c.o2
			}
			prog := compileAt(t, c.text, lvl)
			got := make([]int, prog.NumPasses())
			for p := range got {
				got[p] = len(prog.passes[p].steps)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s at %v: %v steps per pass, want %v", c.name, lvl, got, want)
			}
		}
	}
}

// TestSlotReuseBoundsRegisterSlab: the liveness remapper must need
// strictly fewer lanes than one per node for the Q-criterion network
// (which has dozens of live nodes but short chains), bounding the pooled
// slab for large fused expressions.
func TestSlotReuseBoundsRegisterSlab(t *testing.T) {
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	order, err := net.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	liveNodes, lanes := len(order), prog.SlabLen()/blockSize
	if lanes >= liveNodes {
		t.Fatalf("remapper used %d lanes for %d live nodes — no reuse happened", lanes, liveNodes)
	}
	if lanes < 2 {
		t.Fatalf("suspiciously few lanes (%d)", lanes)
	}
	// The Q-criterion network has a stencil over sources only: one pass,
	// like the fused kernel.
	if prog.NumPasses() != 1 {
		t.Fatalf("Q-criterion compiled to %d passes, want 1", prog.NumPasses())
	}
}

// TestPassSplitOnComputedStencil pins the paper's Figure 2 rule: a gradient of a computed field forces a second pass and a
// materialized scratch buffer.
func TestPassSplitOnComputedStencil(t *testing.T) {
	prog := compileText(t, "s = u*u\nr = norm(grad3d(s, dims, x, y, z))")
	if prog.NumPasses() != 2 {
		t.Fatalf("computed-field stencil compiled to %d passes, want 2", prog.NumPasses())
	}
	scratch := 0
	for _, b := range prog.Buffers() {
		if b.Kind == BufScratch {
			scratch++
		}
	}
	if scratch != 1 {
		t.Fatalf("%d scratch buffers, want 1", scratch)
	}
}

// TestRunBasics checks output shape, the missing-source error path and
// the short-source error path.
func TestRunBasics(t *testing.T) {
	prog := compileText(t, vortex.QCritExpr)
	src, n := meshSources(t, mesh.Dims{NX: 6, NY: 5, NZ: 4})
	out, err := prog.Run(n, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n*prog.OutWidth {
		t.Fatalf("output %d floats, want %d", len(out), n*prog.OutWidth)
	}
	if _, err := prog.Run(0, src, nil); err == nil {
		t.Fatal("n=0 must fail")
	}
	if _, err := prog.Run(n, func(string) ([]float32, error) {
		return nil, errors.New("nope")
	}, nil); err == nil {
		t.Fatal("source resolution failure must surface")
	}
	short := func(name string) ([]float32, error) {
		data, err := src(name)
		if err != nil || name != "u" {
			return data, err
		}
		return data[:2], nil
	}
	if _, err := prog.Run(n, short, nil); err == nil {
		t.Fatal("short source must fail")
	}
}

// TestRunAllReusesViews: programs of different buffer tables run in turn
// through one views slice compute the bits a fresh Run does, and a warm
// RunAll allocates only its output array.
func TestRunAllReusesViews(t *testing.T) {
	src, n := meshSources(t, mesh.Dims{NX: 6, NY: 5, NZ: 4})
	progs := []*Program{compileText(t, vortex.QCritExpr), compileText(t, vortex.VelMagExpr), compileText(t, "s = u*u\nr = norm(grad3d(s, dims, x, y, z))")}
	views := make([]ocl.View, 0, 64)
	for round := 0; round < 2; round++ {
		for _, prog := range progs {
			want, err := prog.Run(n, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := prog.RunAll(views[:cap(views)], n, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 1 || len(outs[0].Data) != len(want) || outs[0].Width != prog.OutWidth {
				t.Fatalf("RunAll returned %d outputs, first %d floats wide %d", len(outs), len(outs[0].Data), outs[0].Width)
			}
			for i, v := range want {
				if math.Float32bits(outs[0].Data[i]) != math.Float32bits(v) {
					t.Fatalf("element %d differs through reused views", i)
				}
			}
		}
	}
	prog := progs[0]
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := prog.RunAll(views[:cap(views)], n, src, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("warm RunAll makes %.0f allocations, want the output's 1", allocs)
	}
}

// TestDimsNeedsOnlyHeader: the dims descriptor is a fixed small array,
// never problem-sized — the VM must accept it exactly as the device
// kernels do.
func TestDimsNeedsOnlyHeader(t *testing.T) {
	prog := compileText(t, vortex.VortMagExpr)
	src, n := meshSources(t, mesh.Dims{NX: 4, NY: 4, NZ: 4})
	if _, err := prog.Run(n, src, nil); err != nil {
		t.Fatalf("4-element dims rejected: %v", err)
	}
}

// TestScratchPoolDeterminism: after a drain, the first run allocates
// and subsequent runs are served entirely from the pool — the property
// the warm-path gates in metrics.RunRepeat build on.
func TestScratchPoolDeterminism(t *testing.T) {
	prog := compileText(t, vortex.QCritExpr)
	src, n := meshSources(t, mesh.Dims{NX: 8, NY: 8, NZ: 8})
	DrainPool()
	s0 := Stats()
	if _, err := prog.Run(n, src, nil); err != nil {
		t.Fatal(err)
	}
	s1 := Stats()
	if s1.Allocs == s0.Allocs {
		t.Fatal("cold run after drain allocated nothing")
	}
	for i := 0; i < 5; i++ {
		if _, err := prog.Run(n, src, nil); err != nil {
			t.Fatal(err)
		}
	}
	s2 := Stats()
	if s2.Allocs != s1.Allocs {
		t.Fatalf("warm runs allocated %d fresh scratch slices, want 0", s2.Allocs-s1.Allocs)
	}
	if s2.Reuses == s1.Reuses {
		t.Fatal("warm runs reused nothing from the pool")
	}
}

// TestBucketFor pins the pool's bucket rounding.
func TestBucketFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 255: 256, 256: 256, 257: 512}
	for in, want := range cases {
		if got := bucketFor(in); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", in, got, want)
		}
	}
}

// BenchmarkHandlers reports ns/element for the handlers a Q-criterion
// evaluation spends its time in, each run block by block over a 64^3
// mesh (rows of 64) exactly as RunPass drives it, one per fused row, and
// the whole Q-criterion program at Paper and O2 on one goroutine.
// blockSize's comment cites it.
// TestNormHandlerIsFloatArithmetic pins opNorm to the rendered text —
// float squares, a left-to-right float sum, sqrtf — against a float32
// loop spelled here, over special values (signed zeros, infinities,
// NaN, denormals, squares that underflow or overflow) in every lane and
// random vectors, some of which a float64 sum rounds differently.
func TestNormHandlerIsFloatArithmetic(t *testing.T) {
	special := []float32{0, float32(math.Copysign(0, -1)), 1, -3, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(1), math.Float32frombits(0x807fffff), 1e-30, 3e19, math.MaxFloat32}
	var lanes [3][]float32
	for _, x := range special {
		for _, y := range special {
			for _, z := range special {
				lanes[0], lanes[1], lanes[2] = append(lanes[0], x), append(lanes[1], y), append(lanes[2], z)
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	for len(lanes[0])%blockSize != 0 {
		for c, scale := range []float64{1, 100, 0.01} {
			lanes[c] = append(lanes[c], float32(rng.NormFloat64()*scale))
		}
	}
	// Lanes 1..3 hold the vector, lane 5 the result.
	s := step{op: opNorm, dst: operand{idx: 5}, args: [4]operand{{idx: 1}}}
	regs := make([]float32, 6*blockSize)
	widened := 0
	for base := 0; base < len(lanes[0]); base += blockSize {
		for c := range lanes {
			copy(regs[(c+1)*blockSize:], lanes[c][base:base+blockSize])
		}
		handlers[opNorm](&s, regs, nil, base, blockSize)
		for e, got := range regs[5*blockSize:] {
			x, y, z := lanes[0][base+e], lanes[1][base+e], lanes[2][base+e]
			sum := float32(float32(x*x) + float32(y*y))
			sum = float32(sum + float32(z*z))
			want := float32(math.Sqrt(float64(sum)))
			if math.Float32bits(got) != math.Float32bits(want) && !(want != want && got != got) {
				t.Fatalf("norm(%v, %v, %v) = %v (%#08x), want %v (%#08x)", x, y, z, got, math.Float32bits(got), want, math.Float32bits(want))
			}
			if wx, wy, wz := float64(x), float64(y), float64(z); float32(math.Sqrt(wx*wx+wy*wy+wz*wz)) != want {
				widened++
			}
		}
	}
	if widened == 0 {
		t.Fatal("no vector tells float from float64 arithmetic apart")
	}
}

func BenchmarkHandlers(b *testing.B) {
	d := mesh.Dims{NX: 64, NY: 64, NZ: 64}
	src, n := meshSources(b, d)
	view := func(name string) ocl.View {
		data, err := src(name)
		if err != nil {
			b.Fatal(err)
		}
		return ocl.View{Data: data, Elems: n, Width: 1}
	}
	views := []ocl.View{view("u"), view("dims"), view("x"), view("y"), view("z"),
		{Data: make([]float32, n), Elems: n, Width: 1}}
	// Operands are register lanes 1..4, the destination lane 5 (a vector
	// takes lanes 5..8); lane 0 is the fused rows' temporary.
	r := func(l uint32) operand { return operand{idx: l} }
	gbufs := [5]uint16{0, 1, 2, 3, 4}
	type bench struct {
		name string
		s    step
	}
	cases := []bench{
		{"add", step{op: opOf["add"], dst: r(5), args: [4]operand{r(1), r(2)}}},
		{"sub", step{op: opOf["sub"], dst: r(5), args: [4]operand{r(1), r(2)}}},
		{"mul", step{op: opOf["mul"], dst: r(5), args: [4]operand{r(1), r(2)}}},
		{"div", step{op: opOf["div"], dst: r(5), args: [4]operand{r(1), r(2)}}},
		{"min", step{op: opOf["min"], dst: r(5), args: [4]operand{r(1), r(2)}}},
		{"max", step{op: opOf["max"], dst: r(5), args: [4]operand{r(1), r(2)}}},
		{"sqrt", step{op: opOf["sqrt"], dst: r(5), args: [4]operand{r(1)}}},
		{"select", step{op: opOf["select"], dst: r(5), args: [4]operand{r(1), r(2), r(2)}}},
		{"store", step{op: opStore, width: 1, dst: operand{idx: 5, buf: true}, args: [4]operand{r(1)}}},
		{"grad3d", step{op: opGrad, dst: r(5), gbufs: gbufs}},
		// One axis of the stencil is kernels' diffRow over 64-cell rows:
		// whole rows along y, face cells apart from the rest along x.
		{"diffRow", step{op: opGradAxis, comp: 1, dst: r(5), gbufs: gbufs}},
		{"diffRowX", step{op: opGradAxis, comp: 0, dst: r(5), gbufs: gbufs}},
	}
	for i, row := range kernels.FusedRows() {
		cases = append(cases, bench{row.Name, step{op: opFused + opcode(i), dst: r(5), args: [4]operand{r(1), r(2), r(3), r(4)}}})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			regs := make([]float32, 9*blockSize)
			for i := 0; i < b.N; i++ {
				for base := 0; base < n; base += blockSize {
					handlers[c.s.op](&c.s, regs, views, base, min(blockSize, n-base))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
		})
	}
	for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
		name := "qcrit"
		if lvl == passes.LevelO2 {
			name = "qcrit_o2"
		}
		b.Run(name, func(b *testing.B) {
			prog := compileAt(b, vortex.QCritExpr, lvl)
			pviews := make([]ocl.View, len(prog.buffers))
			for i, spec := range prog.buffers {
				if spec.Kind == BufSource {
					pviews[i] = view(spec.Name)
				} else {
					pviews[i] = ocl.View{Data: make([]float32, n*spec.Width), Elems: n, Width: spec.Width}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := range prog.passes {
					prog.RunPass(p, 0, n, pviews)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
		})
	}
}
