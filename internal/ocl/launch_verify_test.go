package ocl_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/rtsim"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// verifyExprs are the networks the deferred residency check is driven
// through: one pass of stencils, two passes with the stencil on a
// computed field, and nested stencils over three passes. stencil tells,
// per field u, v, w, whether the network reads it through a stencil
// (the block plus one plane on each side) or element by element.
var verifyExprs = []struct {
	name, text string
	stencil    [3]bool
}{
	{"qcrit", vortex.QCritExpr, [3]bool{true, true, true}},
	{"gradmag", vortex.GradMagExpr, [3]bool{false, false, false}},
	{"nested", "g = grad3d(u, dims, x, y, z)\nh = grad3d(g[2] * v, dims, x, y, z)\nr = h[0] + w", [3]bool{true, false, false}},
}

// verifyStrategies are the device strategies with resident sources, and
// roundtrip, whose uploads are never resident.
var verifyStrategies = []strategy.Strategy{
	{Kind: strategy.Fusion},
	{Kind: strategy.Streaming, Tiles: 2},
	{Kind: strategy.Streaming, Tiles: 3},
	{Kind: strategy.Staged},
	{Kind: strategy.Roundtrip},
}

var fieldNames = [3]string{"u", "v", "w"}

// verifyMesh builds a mesh of the given extents with the velocity fields
// on it, in arrays of the test's own.
func verifyMesh(d mesh.Dims) (*mesh.Mesh, [3][]float32) {
	m := mesh.MustUniform(d, 1.0/float32(d.NX), 1.0/float32(d.NY), 1.0/float32(d.NZ))
	f := rtsim.Generate(m, rtsim.Options{Seed: 5})
	return m, [3][]float32{slices.Clone(f.U), slices.Clone(f.V), slices.Clone(f.W)}
}

// chunks returns the ranges a launch over n elements splits into on a
// device with the given chunking (Device.SetChunking).
func chunks(n, workers, grain int) [][2]int {
	workers = min(workers, (n+grain-1)/grain)
	if workers <= 1 {
		return [][2]int{{0, n}}
	}
	var out [][2]int
	step := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += step {
		out = append(out, [2]int{lo, min(n, lo+step)})
	}
	return out
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// slot is one resident source buffer as the eager rule sees it: the
// source and the window of its cells the buffer holds.
type slot struct {
	label  string
	field  int // index into fieldNames; -1 for dims, x, y, z, which never change
	lo, hi int
}

// eager is the arena's eager rule, the check made at upload, run by the
// test: the bytes each resident slot holds, and the order a plan binds
// its slots, read off an unpooled run, where every bind is a write.
type eager struct {
	binds  []ocl.Event
	slotOf func(label string, k int) slot
	held   map[slot][]float32
}

// newEager records the plan's binds: streaming binds one slot per tile,
// over the tile's haloed window (the k-th bind of a label is tile k),
// and the others one slot per source over the whole array. Roundtrip
// holds nothing resident.
func newEager(t *testing.T, s strategy.Strategy, net *dataflow.Network, d mesh.Dims, bind strategy.Bindings) *eager {
	res, err := strategy.Execute(s, ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64))), net, bind)
	if err != nil {
		t.Fatal(err)
	}
	field := func(label string) int { return slices.Index(fieldNames[:], label) }
	e := &eager{binds: res.Events, held: map[slot][]float32{}}
	n := d.Cells()
	e.slotOf = func(label string, _ int) slot { return slot{label, field(label), 0, n} }
	switch s.Kind {
	case strategy.Roundtrip:
		e.slotOf = nil
	case strategy.Streaming:
		depth, err := strategy.StencilDepth(net)
		if err != nil {
			t.Fatal(err)
		}
		slabs, err := mesh.Split(d, [3]int{1, 1, min(s.Tiles, d.NZ)})
		if err != nil {
			t.Fatal(err)
		}
		plane := d.NX * d.NY
		e.slotOf = func(label string, k int) slot {
			tile := slabs[k].Grow(depth, d)
			return slot{label, field(label), tile.Lo[2] * plane, tile.Hi[2] * plane}
		}
	}
	return e
}

// run applies the rule to one evaluation over fields: the events it
// moves — an unchanged slot's bind drops its write — and the uploads
// and skips the arena counts.
func (e *eager) run(fields [3][]float32) (want []string, writes, skips int64) {
	seen := map[string]int{}
	for _, ev := range e.binds {
		if ev.Kind == ocl.WriteEvent && e.slotOf != nil {
			sl := e.slotOf(ev.Name, seen[ev.Name])
			seen[ev.Name]++
			var cur []float32
			if sl.field >= 0 {
				cur = fields[sl.field][sl.lo:sl.hi]
			}
			if held, ok := e.held[sl]; ok && sameBits(held, cur) {
				skips++
				continue
			}
			e.held[sl] = slices.Clone(cur)
			writes++
		}
		want = append(want, eventKey(ev))
	}
	return want, writes, skips
}

// eventKey is what the eager rule pins of an event.
func eventKey(e ocl.Event) string { return fmt.Sprint(e.Kind, " ", e.Name, " ", e.Bytes) }

// flipPositions lists the cells a bind may flip: the first and last
// cell, and around each chunk seam the seam itself, the cell before it,
// and one plane (plus and minus one cell) to either side — cells a
// neighbouring chunk reads only through its stencil halo.
func flipPositions(n, plane int, layout [][2]int) []int {
	pos := []int{0, n - 1, plane - 1, plane, n - plane, n - 1 - plane}
	for _, c := range layout[1:] {
		s := c[0]
		pos = append(pos, s, s-1, s-plane, s-plane-1, s+plane, s+plane-1)
	}
	out := pos[:0]
	for _, p := range pos {
		if p >= 0 && p < n {
			out = append(out, p)
		}
	}
	return out
}

// checkChunkWindows runs the fused program's passes over each chunk of
// the layout alone, with field f's buffer pending: holding prev, checked
// against cur, which differ at cell p. A chunk must find the difference
// exactly when its read window holds p — the chunk itself for a field
// read element by element, the chunk grown by one plane on each side for
// a stencil's field — so no worker reads a byte it has not verified.
func checkChunkWindows(t *testing.T, net *dataflow.Network, bound map[string]strategy.Source, f int, stencil bool, prev, cur []float32, p, plane int, layout [][2]int) {
	prog, err := codegen.Build(net, "expr")
	if err != nil {
		t.Fatal(err)
	}
	n := len(cur)
	for _, c := range layout {
		var stale atomic.Bool
		views := make([]ocl.View, len(prog.Args))
		for i, a := range prog.Args {
			switch {
			case a.Kind != codegen.ArgSource:
				views[i] = ocl.View{Data: make([]float32, n*a.Width), Elems: n, Width: a.Width}
			case a.Name == fieldNames[f]:
				views[i] = ocl.PendingView(prev, cur, 1, &stale)
			default:
				views[i] = ocl.View{Data: bound[a.Name].Data, Elems: len(bound[a.Name].Data), Width: 1}
			}
		}
		for _, pass := range prog.Kernel.Passes {
			if pass(c[0], c[1], views, nil); stale.Load() {
				break
			}
		}
		lo, hi := c[0], c[1]
		if stencil {
			lo, hi = max(0, lo-plane), min(n, hi+plane)
		}
		if want := p >= lo && p < hi; stale.Load() != want {
			t.Fatalf("chunk [%d, %d) reading %s (stencil %v), flip at %d: stale = %v, want %v",
				c[0], c[1], fieldNames[f], stencil, p, stale.Load(), want)
		}
	}
}

// FuzzLaunchVerify: a check deferred into the launch agrees with one
// made at upload. Each input fixes a mesh (1 to 9 cells per axis), a
// chunk layout (device workers {1, 2, 3, 8} by grains {1, 512, 4096}),
// a strategy and an expression, then a sequence of binds; each step
// byte flips one word of u, v or w, of all three, or none, at one of
// flipPositions. After every run the bits must equal a fresh cold
// engine's, the (kind, name, bytes) events must be the eager rule's
// (eager.run), and the arena must count one upload per changed slot and
// one skip per unchanged one. Every flip is also checked chunk by
// chunk on the fused program (checkChunkWindows).
func FuzzLaunchVerify(f *testing.F) {
	// A step byte is which + 5*position: which is u, v, w, none or all.
	f.Add(uint16(8*81+7*9+6), uint8(0), uint8(0), []byte{0, 1 + 5*1, 2 + 5*3, 3, 4 + 5*5})
	f.Add(uint16(4*81+8*9+8), uint8(3), uint8(1), []byte{0 + 5*2, 1 + 5*7, 2 + 5*9, 4 + 5*11})
	f.Add(uint16(8*81+3*9+4), uint8(2+4), uint8(2+5), []byte{4, 0 + 5*4, 0 + 5*4, 1 + 5*13})
	f.Add(uint16(6*81+6*9+6), uint8(1+8), uint8(3+10), []byte{2 + 5*6, 4 + 5*8, 3})
	f.Add(uint16(8*81+8*9+8), uint8(3+4), uint8(4), []byte{0 + 5*3, 4 + 5*10, 1 + 5*12})
	f.Add(uint16(5+0*9+1*81), uint8(7), uint8(2), []byte{0})
	f.Fuzz(func(t *testing.T, shape uint16, layout, choice uint8, steps []byte) {
		if len(steps) > 12 {
			steps = steps[:12]
		}
		d := mesh.Dims{NX: 1 + int(shape%9), NY: 1 + int(shape/9%9), NZ: 1 + int(shape/81%9)}
		workers := [4]int{1, 2, 3, 8}[layout%4]
		grain := [3]int{1, 512, 4096}[layout/4%3]
		s := verifyStrategies[choice%5]
		ex := verifyExprs[choice/5%3]
		net, err := expr.Compile(ex.text)
		if err != nil {
			t.Fatal(err)
		}
		m, fields := verifyMesh(d)
		bind, err := strategy.BindMesh(m, map[string][]float32{"u": fields[0], "v": fields[1], "w": fields[2]})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.Plan(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		dev := ocl.NewDevice(ocl.XeonX5660Spec(64))
		dev.SetChunking(workers, grain)
		env := ocl.NewEnv(dev)
		pool := env.Context().Pool()
		env.SetPool(pool)
		rule := newEager(t, s, net, d, bind)
		check := func(step int, res strategy.Result, before ocl.ArenaStats) {
			t.Helper()
			var events []string
			for _, e := range env.Queue().Events() {
				events = append(events, eventKey(e))
			}
			fresh, err := strategy.Execute(s, ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64))), net, bind)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(res.Data, fresh.Data) {
				t.Fatalf("step %d (%s, %s, %d workers, grain %d): bits differ from a cold run's", step, s, ex.name, workers, grain)
			}
			want, writes, skips := rule.run(fields)
			if !slices.Equal(events, want) {
				t.Fatalf("step %d (%s, %s): events\n%s\nwant the eager rule's\n%s", step, s, ex.name, strings.Join(events, "\n"), strings.Join(want, "\n"))
			}
			after := pool.Stats()
			if got := after.Uploads - before.Uploads; got != writes {
				t.Fatalf("step %d (%s, %s): %d uploads, want %d", step, s, ex.name, got, writes)
			}
			if got := after.UploadsSkipped - before.UploadsSkipped; got != skips {
				t.Fatalf("step %d (%s, %s): %d skips, want %d", step, s, ex.name, got, skips)
			}
		}
		res, err := plan.Execute(env, bind)
		if err != nil {
			t.Fatal(err)
		}
		check(-1, res, ocl.ArenaStats{})

		n, plane := d.Cells(), d.NX*d.NY
		chunkLayout := chunks(n, workers, grain)
		positions := flipPositions(n, plane, chunkLayout)
		var prev [3][]float32
		for i := range prev {
			prev[i] = slices.Clone(fields[i])
		}
		for step, b := range steps {
			which, p := int(b%5), positions[int(b/5)%len(positions)]
			for i := range fields {
				if which == i || which == 4 {
					fields[i][p] = math.Float32frombits(math.Float32bits(fields[i][p]) ^ 1<<(step%32))
				}
			}
			before := pool.Stats()
			res, err := plan.Execute(env, bind)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			check(step, res, before)
			for i := range fields {
				if which == i || which == 4 {
					checkChunkWindows(t, net, bind.Sources, i, ex.stencil[i], prev[i], fields[i], p, plane, chunkLayout)
				}
				copy(prev[i], fields[i])
			}
		}
	})
}

// TestOutputIndependentOfChunkLayout: every strategy's output, cold and
// warm, is bit for bit the same under device workers 1, 2 and 8 and
// grains 1, 512 and 4096, on meshes whose chunks start mid-row (64 x 3
// x 5) and mid-plane (5 x 64 x 3).
func TestOutputIndependentOfChunkLayout(t *testing.T) {
	for _, d := range []mesh.Dims{{NX: 64, NY: 3, NZ: 5}, {NX: 5, NY: 64, NZ: 3}} {
		m, fields := verifyMesh(d)
		bind, err := strategy.BindMesh(m, map[string][]float32{"u": fields[0], "v": fields[1], "w": fields[2]})
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range verifyExprs {
			net, err := expr.Compile(ex.text)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range strategy.ExtendedNames() {
				s, err := strategy.ForName(name)
				if err != nil {
					t.Fatal(err)
				}
				var want []float32
				for _, workers := range []int{1, 2, 8} {
					for _, grain := range []int{1, 512, 4096} {
						dev := ocl.NewDevice(ocl.XeonX5660Spec(64))
						dev.SetChunking(workers, grain)
						env := ocl.NewEnv(dev)
						env.SetPool(env.Context().Pool())
						for run := 0; run < 2; run++ {
							res, err := strategy.Execute(s, env, net, bind)
							if err != nil {
								t.Fatal(err)
							}
							if want == nil {
								want = res.Data
							} else if !sameBits(res.Data, want) {
								t.Fatalf("%v, %s, %s: %d workers, grain %d, run %d differs from 1 worker, grain 1", d, ex.name, name, workers, grain, run)
							}
						}
					}
				}
			}
		}
	}
}

// TestFaultOperationOrder sweeps a FaultAny rule with Nth = i over every
// device operation of an evaluation and pins, in order, the kind and
// label of the operation each i fails: warm evaluations with unchanged
// data, one field changed and all fields changed, under fusion and
// streaming@4, and a cold one. A check deferred into the launch keeps
// the order of an eager one; the launch a stale check aborts consults
// no rule, so a changed field's write comes before the kernel.
func TestFaultOperationOrder(t *testing.T) {
	tile := func(ops ...string) []string { return ops }
	repeat := func(n int, ops []string) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, ops...)
		}
		return out
	}
	cases := []struct {
		name    string
		s       strategy.Strategy
		warm    bool
		changed []int // fields rewritten before the faulted evaluation
		want    []string
	}{
		{"fusion/cold", strategy.Strategy{Kind: strategy.Fusion}, false, nil, []string{
			"alloc u", "write u", "alloc dims", "write dims", "alloc x", "write x", "alloc y", "write y",
			"alloc z", "write z", "alloc v", "write v", "alloc w", "write w",
			"alloc out", "kernel kfused_expr", "read out"}},
		{"fusion/unchanged", strategy.Strategy{Kind: strategy.Fusion}, true, nil, []string{
			"kernel kfused_expr", "read out"}},
		{"fusion/one-changed", strategy.Strategy{Kind: strategy.Fusion}, true, []int{1}, []string{
			"write v", "kernel kfused_expr", "read out"}},
		{"fusion/all-changed", strategy.Strategy{Kind: strategy.Fusion}, true, []int{0, 1, 2}, []string{
			"write u", "write v", "write w", "kernel kfused_expr", "read out"}},
		{"streaming@4/unchanged", strategy.Strategy{Kind: strategy.Streaming, Tiles: 4}, true, nil,
			repeat(4, tile("kernel kfused_expr", "read out"))},
		{"streaming@4/one-changed", strategy.Strategy{Kind: strategy.Streaming, Tiles: 4}, true, []int{1},
			repeat(4, tile("write v", "kernel kfused_expr", "read out"))},
		{"streaming@4/all-changed", strategy.Strategy{Kind: strategy.Streaming, Tiles: 4}, true, []int{0, 1, 2},
			repeat(4, tile("write u", "write v", "write w", "kernel kfused_expr", "read out"))},
	}
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	d := mesh.Dims{NX: 6, NY: 5, NZ: 8}
	for _, c := range cases {
		var got []string
		for i := 0; ; i++ {
			m, fields := verifyMesh(d)
			bind, err := strategy.BindMesh(m, map[string][]float32{"u": fields[0], "v": fields[1], "w": fields[2]})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := c.s.Plan(net, nil)
			if err != nil {
				t.Fatal(err)
			}
			env := ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
			env.SetPool(env.Context().Pool())
			if c.warm {
				if _, err := plan.Execute(env, bind); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range c.changed {
				for j := range fields[f] {
					fields[f][j] = -fields[f][j] + 1
				}
			}
			env.Context().SetFaultPlan(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultAny, Nth: i}))
			_, err = plan.Execute(env, bind)
			if err == nil {
				break
			}
			var fe *ocl.FaultError
			var ae *ocl.AllocError
			switch {
			case errors.As(err, &fe):
				got = append(got, fmt.Sprint(fe.Op, " ", fe.Name))
			case errors.As(err, &ae): // an injected allocation fault keeps the capacity error's shape
				got = append(got, "alloc "+ae.Buffer)
			default:
				t.Fatalf("%s: fault at operation %d: %v", c.name, i, err)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: faulted operations\n%s\nwant\n%s", c.name, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}
