package strategy

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/vm"
	"dfg/internal/vm/vmtest"
	"dfg/internal/vortex"
)

// Executor differential harness. The vm and fusion strategies run the
// same lowered program on the same blocked executor, so agreement
// between them only checks the plumbing around it — host arrays in place
// versus device buffers and launch chunks. That is what the
// VM-vs-fusion tests below pin (at zero ULP, across the paper
// expressions, random programs, mesh sizes and optimisation levels); the
// executor itself, lane allocator and fused rows included, is held to the per-element
// reference interpreter by FuzzVMDifferential. Every comparison covers
// every element, non-finite ones included (sameClass).

// checkVMAgainstFusion executes one network under both evaluators and
// requires zero-ULP agreement everywhere.
func checkVMAgainstFusion(t *testing.T, text string, lvl passes.Level, bind Bindings) {
	t.Helper()
	net := compileAt(t, text, lvl)
	fres, err := Execute(Strategy{Kind: Fusion}, cpuEnv(), net, bind)
	if err != nil {
		t.Fatalf("fusion at %v: %v\n%s", lvl, err, text)
	}
	vres, err := Execute(Strategy{Kind: VM}, cpuEnv(), net, bind)
	if err != nil {
		t.Fatalf("vm at %v: %v\n%s", lvl, err, text)
	}
	if len(vres.Data) != len(fres.Data) || vres.Width != fres.Width {
		t.Fatalf("vm shape %dx%d vs fusion %dx%d at %v\n%s",
			len(vres.Data), vres.Width, len(fres.Data), fres.Width, lvl, text)
	}
	for i := range fres.Data {
		if !sameClass(fres.Data[i], vres.Data[i]) {
			t.Fatalf("vm diverges from fusion at %v, element %d: %v vs %v\nprogram:\n%s",
				lvl, i, fres.Data[i], vres.Data[i], text)
		}
	}
}

// TestVMMatchesFusionAcrossLevelsAndSizes sweeps the paper expressions
// and random programs over multiple mesh sizes (crossing the block-size
// boundary) at both optimisation levels.
func TestVMMatchesFusionAcrossLevelsAndSizes(t *testing.T) {
	for _, dims := range []mesh.Dims{
		{NX: 3, NY: 2, NZ: 2},  // smaller than one register block
		{NX: 8, NY: 8, NZ: 8},  // the headline small-mesh tier
		{NX: 13, NY: 9, NZ: 7}, // odd sizes straddling block boundaries
	} {
		bind, _ := qcritSetup(t, dims)
		for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
			for _, e := range vortex.Expressions() {
				checkVMAgainstFusion(t, e.Text, lvl, bind)
			}
			rng := rand.New(rand.NewSource(int64(dims.NX)*1000 + int64(lvl)))
			for trial := 0; trial < 10; trial++ {
				checkVMAgainstFusion(t, randProgram(rng, []string{"u", "v", "w"}), lvl, bind)
			}
		}
	}
}

// TestVMO2MatchesPaperFusion is the cross-level leg: the VM running an
// O2-optimised network must still agree with Paper-level fusion on
// every element.
func TestVMO2MatchesPaperFusion(t *testing.T) {
	bind := optLevelBindings(23)
	rng := rand.New(rand.NewSource(29))
	progs := []string{vortex.VelMagExpr, vortex.VortMagExpr, vortex.QCritExpr}
	for trial := 0; trial < 15; trial++ {
		progs = append(progs, randProgram(rng, []string{"u", "v", "w"}))
	}
	for _, text := range progs {
		paper := compileAt(t, text, passes.LevelPaper)
		o2 := compileAt(t, text, passes.LevelO2)
		fres, err := Execute(Strategy{Kind: Fusion}, cpuEnv(), paper, bind)
		if err != nil {
			t.Fatalf("paper fusion: %v\n%s", err, text)
		}
		vres, err := Execute(Strategy{Kind: VM}, cpuEnv(), o2, bind)
		if err != nil {
			t.Fatalf("O2 vm: %v\n%s", err, text)
		}
		for i := range fres.Data {
			if !sameClass(fres.Data[i], vres.Data[i]) {
				t.Fatalf("O2 vm diverges from paper fusion at element %d: %v vs %v\nprogram:\n%s",
					i, fres.Data[i], vres.Data[i], text)
			}
		}
	}
}

// executorVsReference lowers net once and runs both views of it over the
// binding: the blocked executor — each pass split at cut, so the second
// range starts at lo != 0 off a block boundary — and the per-element
// reference over the virtual registers. With poison set, the scratch
// pool is first stocked with NaN-filled slabs for exactly the draws the
// executor will make (its register slab, scratch and outputs), so any
// read of a lane or element the program did not write first shows up as
// a NaN the reference does not have. It returns both sides' outputs, or
// ok = false when the binding cannot run the program at all (unbound or
// short sources, a network the lowering rejects).
func executorVsReference(t *testing.T, net *dataflow.Network, bind Bindings, cut int, poison bool) (got, want [][]float32, ok bool) {
	t.Helper()
	low, err := vm.Lower(net)
	if err != nil {
		return nil, nil, false
	}
	n := bind.N
	prog := low.Program()
	draws := []int{prog.SlabLen()}
	for _, b := range low.Buffers {
		if src := bind.Sources[b.Name]; b.Kind == vm.BufSource && len(src.Data) < b.Need(n) {
			return nil, nil, false
		} else if b.Kind != vm.BufSource {
			draws = append(draws, n*b.Width)
		}
	}
	if poison {
		poisonScratchPool(draws)
	}

	exec := make([]ocl.View, len(low.Buffers))
	ref := make([]ocl.View, len(low.Buffers))
	for i, b := range low.Buffers {
		exec[i] = ocl.View{Data: bind.Sources[b.Name].Data, Elems: n, Width: b.Width}
		ref[i] = exec[i]
		if b.Kind != vm.BufSource {
			exec[i].Data = vm.GetScratch(n * b.Width)
			defer vm.PutScratch(exec[i].Data)
			ref[i].Data = make([]float32, n*b.Width)
		}
		if b.Kind == vm.BufOut {
			got, want = append(got, exec[i].Data), append(want, ref[i].Data)
		}
	}
	cut %= n
	for p := 0; p < prog.NumPasses(); p++ {
		prog.RunPass(p, 0, cut, exec)
		prog.RunPass(p, cut, n, exec)
	}
	vmtest.Reference(low, n, ref)
	// The outputs go back to the pool when this returns; hand out copies.
	for i := range got {
		got[i] = append([]float32(nil), got[i]...)
	}
	return got, want, true
}

// poisonScratchPool stocks vm's scratch pool with one NaN-filled slab per
// draw, so the next draws of those sizes come back poisoned.
func poisonScratchPool(draws []int) {
	nan := float32(math.NaN())
	slabs := make([][]float32, len(draws))
	for i, size := range draws {
		slabs[i] = vm.GetScratch(size)
	}
	for _, s := range slabs {
		s = s[:cap(s)]
		for i := range s {
			s[i] = nan
		}
		vm.PutScratch(s)
	}
}

// TestStencilOverConstantField: a constant used as a stencil's field is
// filled into its scratch before the stencil reads it (the lowering used
// to mark it materialized and then skip it as a leaf, so the stencil read
// whatever the pool handed out). The gradient of a constant is +0 on
// every cell, from the executor, the reference and every tier.
func TestStencilOverConstantField(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 13, NY: 9, NZ: 7})
	allZero := func(what string, data []float32) {
		t.Helper()
		for i, v := range data {
			if math.Float32bits(v) != 0 {
				t.Fatalf("%s: element %d is %v (%#08x), want +0", what, i, v, math.Float32bits(v))
			}
		}
	}
	for _, text := range []string{
		"g = grad3d(0, dims, x, y, z)\nr = g[0]",
		"g = grad3d(2.5, dims, x, y, z)\nr = g[0]",
		"c = 2.5\nr = norm(grad3d(c, dims, x, y, z)) + c*0", // the constant is also an operand
	} {
		for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
			net := compileAt(t, text, lvl)
			prog, err := vm.Compile(net)
			if err != nil {
				t.Fatal(err)
			}
			for _, poison := range []bool{false, true} {
				got, want, ok := executorVsReference(t, net, bind, 300, poison)
				if !ok {
					t.Fatalf("lowering rejected\n%s", text)
				}
				allZero("executor", got[0])
				allZero("reference", want[0])
				for _, s := range []Strategy{{Kind: Fusion}, {Kind: VM}, {Kind: Tiered, Threshold: 1}, {Kind: Tiered, Threshold: 1 << 20}} {
					if poison {
						poisonScratchPool([]int{bind.N, bind.N, prog.SlabLen()})
					}
					res, err := Execute(s, cpuEnv(), net, bind)
					if err != nil {
						t.Fatalf("%s: %v\n%s", s.Name(), err, text)
					}
					allZero(s.Name(), res.Data)
				}
			}
		}
	}
}

// FuzzVMDifferential holds the one executor to the per-element reference
// at zero ULP. (vm-vs-fusion is the same code on both sides since the
// lowering merge, so that comparison would pass vacuously.) Inputs: a
// program text, an optional second text merged with the first into a
// multi-root super-network, mesh dims (so N is rarely a multiple of the
// register block; nx >= 250 selects a few-row mesh whose rows are
// longer than a block), the element at which every pass's range is
// split, and whether to run over a NaN-poisoned scratch pool. Any program the
// Paper pipeline accepts must agree at the same level, and the
// O2-lowered executor must agree with the Paper-level reference on
// every element. This is the harness the vm-smoke CI job drives.
func FuzzVMDifferential(f *testing.F) {
	const fig2 = "s = u*u\nr = norm(grad3d(s, dims, x, y, z))" // two passes through scratch
	for _, e := range vortex.Expressions() {
		f.Add(e.Text, "", uint8(6), uint8(5), uint8(4), uint16(0), false)
	}
	f.Add(vortex.QCritExpr, "", uint8(13), uint8(9), uint8(7), uint16(77), false)                  // N = 819, split off-block
	f.Add(vortex.VelMagExpr, vortex.VortMagExpr, uint8(7), uint8(5), uint8(9), uint16(100), false) // multi-root
	f.Add(fig2, "", uint8(13), uint8(9), uint8(7), uint16(300), false)
	f.Add(fig2, vortex.QCritExpr, uint8(8), uint8(8), uint8(5), uint16(257), true) // multi-root, two passes, stale scratch
	f.Add(vortex.QCritExpr, "", uint8(8), uint8(8), uint8(8), uint16(1), true)     // stale registers
	f.Add("s = min(u, v) + max(w, 0.5)\nr = if (s >= 0) then (sqrt(s)) else (-s)", "", uint8(6), uint8(5), uint8(4), uint16(3), true)
	f.Add("g = grad3d(u, dims, x, y, z)\nr = norm(g) * g[1]", "", uint8(1), uint8(9), uint8(30), uint16(256), false) // one-cell axis
	f.Add("r = grad3d(u, dims, x, y, z)", "", uint8(9), uint8(9), uint8(9), uint16(500), true)                       // float4 output, pad lane
	f.Add("r = grad3d(u, dims, x, y, z)", fig2, uint8(9), uint8(9), uint8(9), uint16(300), true)                     // float4 root through scratch: a width-4 load
	// The row walker: a one-cell and a two-cell x axis, rows longer than
	// a register block (nx = 250 is 600 cells), and splits one cell past
	// a row end.
	const longRow = 600
	f.Add(vortex.QCritExpr, "", uint8(0), uint8(6), uint8(5), uint16(9), false)
	f.Add(vortex.QCritExpr, "", uint8(1), uint8(1), uint8(5), uint16(5), true)
	f.Add(vortex.QCritExpr, "", uint8(250), uint8(1), uint8(1), uint16(longRow+1), false)
	f.Add(fig2, vortex.VortMagExpr, uint8(250), uint8(1), uint8(0), uint16(longRow-1), true)
	f.Add(vortex.VortMagExpr, "", uint8(12), uint8(8), uint8(6), uint16(13*9*2+14), false)
	// A constant field: its scratch is filled, not left as the pool had it.
	f.Add("g = grad3d(0, dims, x, y, z)\nr = g[0]", "", uint8(6), uint8(5), uint8(4), uint16(7), true)
	// Materialized intermediates read by a stencil and again as values,
	// and an elementwise-only program.
	f.Add(vortex.GradMagExpr, "", uint8(6), uint8(5), uint8(4), uint16(11), false)
	f.Add("g = grad3d(u*u, dims, x, y, z)\nr = g[0] + norm(g)", "", uint8(6), uint8(5), uint8(4), uint16(64), true)
	f.Add("a = sqrt(u*u + v*v)\nr = min(a, abs(w))", "", uint8(6), uint8(5), uint8(4), uint16(0), false)
	// Chains the fused rows must not swallow: an intermediate with a second
	// reader, the constant on the right of the scaled sum, and a NaN
	// constant whose payload the row's operand order must keep.
	f.Add("h = 0.5*(u+v)\nr = h*h + h", "", uint8(13), uint8(9), uint8(7), uint16(77), true)
	f.Add("r = ((u+v)*0.5)*((u+v)*0.5) + w", "", uint8(13), uint8(9), uint8(7), uint16(300), true)
	f.Add("r = (0.0/0.0)*(u-v)", "", uint8(6), uint8(5), uint8(4), uint16(5), false)
	// Two members whose outputs O2 folds to one constant share one root.
	f.Add("sqrt(0*0*0*1*0*2)", "0", uint8(6), uint8(5), uint8(4), uint16(0), false)
	f.Fuzz(func(t *testing.T, text, text2 string, nx, ny, nz uint8, cut uint16, poison bool) {
		// lower returns the program's network at one level and, per member,
		// the root that carries its output: members whose outputs unify
		// share one root, so O2 can have fewer outputs than Paper.
		lower := func(pipe *passes.Pipeline, lvl passes.Level) (*dataflow.Network, []string) {
			net, _, err := expr.CompileWithPipeline(text, nil, pipe, passes.RunOptions{Verify: true})
			if err != nil {
				return nil, nil
			}
			if text2 == "" {
				return net, net.Roots()
			}
			net2, _, err := expr.CompileWithPipeline(text2, nil, pipe, passes.RunOptions{Verify: true})
			if err != nil {
				return nil, nil
			}
			merged, err := passes.MergeNetworks([]passes.MergeMember{{Fp: "a", Net: net}, {Fp: "b", Net: net2}}, lvl, passes.RunOptions{Verify: true})
			if err != nil {
				t.Fatalf("members compiled but the merge failed: %v\n%s\n--\n%s", err, text, text2)
			}
			return merged.Net, merged.Roots
		}
		paper, paperRoots := lower(passes.Paper, passes.LevelPaper)
		if paper == nil {
			t.Skip() // not a well-formed program
		}
		o2, o2Roots := lower(passes.O2, passes.LevelO2)
		if o2 == nil {
			t.Fatalf("paper accepted but O2 rejected\n%s\n--\n%s", text, text2)
		}
		d := mesh.Dims{NX: 1 + int(nx)%13, NY: 1 + int(ny)%11, NZ: 1 + int(nz)%31}
		if nx >= 250 {
			d = mesh.Dims{NX: longRow + 50*(int(nx)-250), NY: 1 + int(ny)%2, NZ: 1 + int(nz)%2}
		}
		bind, _ := qcritSetup(t, d)
		bind.Sources["f"] = bind.Sources["u"]

		got, want, ok := executorVsReference(t, paper, bind, int(cut), poison)
		if !ok {
			return // unbound or short sources, computed coords: nothing to compare
		}
		for r := range want {
			for i := range want[r] {
				if !sameClass(got[r][i], want[r][i]) {
					t.Fatalf("executor diverges from the reference at root %d element %d (N=%d, cut=%d, poison=%v): %v vs %v\n%s\n--\n%s",
						r, i, bind.N, int(cut)%bind.N, poison, got[r][i], want[r][i], text, text2)
				}
			}
		}
		ogot, _, ok := executorVsReference(t, o2, bind, int(cut), poison)
		if !ok {
			t.Fatalf("paper lowering ran but O2 did not\n%s\n--\n%s", text, text2)
		}
		for m := range paperRoots {
			w := want[slices.Index(paper.Roots(), paperRoots[m])]
			g := ogot[slices.Index(o2.Roots(), o2Roots[m])]
			for i := range w {
				if !sameClass(g[i], w[i]) {
					t.Fatalf("O2 executor diverges from the paper reference at member %d element %d: %v vs %v\n%s\n--\n%s",
						m, i, g[i], w[i], text, text2)
				}
			}
		}
	})
}

// usedVM reports whether a Result came from the host VM tier: a VM run
// touches the device for nothing, so its profile carries no events.
func usedVM(r Result) bool {
	return r.Profile.Kernels == 0 && r.Profile.Writes == 0 && r.Profile.Reads == 0
}

// TestTieredThresholdProperty is the tier-selection property: for mesh
// sizes bracketing the threshold, the plan routes strictly-below
// requests to the VM and at-or-above requests to the device strategy —
// and re-planning the same network picks identically.
func TestTieredThresholdProperty(t *testing.T) {
	net, err := expr.Compile(vortex.VelMagExpr)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, th := range []int{2, 64, 1000, DefaultVMThreshold} {
		s := Strategy{Kind: Tiered, Threshold: th}
		env := cpuEnv()
		plan, err := s.Plan(net, env.Device())
		if err != nil {
			t.Fatal(err)
		}
		replan, err := s.Plan(net, env.Device())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{th - 1, th, th + 1, 1, 2 * th} {
			if n < 1 {
				continue
			}
			bind, _, _, _ := velMagBindings(rng, n)
			res, err := plan.Execute(env, bind)
			if err != nil {
				t.Fatalf("tiered@%d n=%d: %v", th, n, err)
			}
			wantVM := n < th
			if usedVM(res) != wantVM {
				t.Fatalf("tiered@%d n=%d: usedVM=%v, want %v (profile %+v)",
					th, n, usedVM(res), wantVM, res.Profile)
			}
			res2, err := replan.Execute(env, bind)
			if err != nil {
				t.Fatalf("tiered@%d n=%d replan: %v", th, n, err)
			}
			if usedVM(res2) != wantVM {
				t.Fatalf("tiered@%d n=%d: re-planned choice flipped", th, n)
			}
			for i := range res.Data {
				if !sameClass(res.Data[i], res2.Data[i]) {
					t.Fatalf("tiered@%d n=%d: re-planned result differs at %d", th, n, i)
				}
			}
		}
		if env.Context().LiveBuffers() != 0 {
			t.Fatalf("tiered@%d leaked %d buffers", th, env.Context().LiveBuffers())
		}
	}
}

// TestTieredDefaultsAndNames pins the one spelling of every variant:
// each name ForName accepts maps to the value whose String() is the
// label the ladder and the metrics read, defaults are applied when the
// value is made (so spellings of one variant are ==, tiered included),
// and a value missing its configuration refuses to plan.
func TestTieredDefaultsAndNames(t *testing.T) {
	for _, tc := range []struct {
		name, kind, label string
		want              Strategy
	}{
		{"roundtrip", "roundtrip", "roundtrip", Strategy{Kind: Roundtrip}},
		{"staged", "staged", "staged", Strategy{Kind: Staged}},
		{"fusion", "fusion", "fusion", Strategy{}},
		{"streaming", "streaming", "streaming@4", Strategy{Kind: Streaming, Tiles: 4}}, // the ladder's streaming@4 rung
		{"vm", "vm", "vm", Strategy{Kind: VM}},
		{"tiered", "tiered", "tiered@4096", Strategy{Kind: Tiered, Threshold: DefaultVMThreshold}},
		{"tiered@4096", "tiered", "tiered@4096", Strategy{Kind: Tiered, Threshold: 4096}},
		{"tiered@128", "tiered", "tiered@128", Strategy{Kind: Tiered, Threshold: 128}},
	} {
		s, err := ForName(tc.name)
		if err != nil {
			t.Fatalf("ForName(%q): %v", tc.name, err)
		}
		if s != tc.want || s.Name() != tc.kind || s.String() != tc.label {
			t.Errorf("ForName(%q) = %+v named %q labeled %q, want %+v, %q, %q", tc.name, s, s.Name(), s.String(), tc.want, tc.kind, tc.label)
		}
	}
	a, _ := ForName("tiered")
	b, _ := ForName("tiered@4096")
	if a != b {
		t.Error("tiered and tiered@4096 are two spellings of one variant")
	}
	for _, bad := range []string{"", "warp", "tiered@zero", "tiered@0", "streaming@16", "Fusion"} {
		if _, err := ForName(bad); err == nil {
			t.Errorf("ForName(%q) must be rejected", bad)
		}
	}
	net, err := expr.Compile("r = u + v")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{{Kind: Streaming}, {Kind: Tiered}, {Kind: Tiered + 1}} {
		if _, err := s.Plan(net, cpuEnv().Device()); err == nil {
			t.Errorf("%v planned without its configuration", s)
		}
	}
	names := ExtendedNames()
	if names[len(names)-1] != "vm" {
		t.Fatalf("ExtendedNames must include vm, got %v", names)
	}
}

// TestVMCancellation mirrors the device strategies' between-launch
// cancellation: a pre-canceled context stops the VM before it runs.
func TestVMCancellation(t *testing.T) {
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	bind, _ := qcritSetup(t, mesh.Dims{NX: 4, NY: 4, NZ: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bind.Ctx = ctx
	if _, err := (Execute(Strategy{Kind: VM}, cpuEnv(), net, bind)); err == nil {
		t.Fatal("canceled context must stop the vm run")
	}
}
