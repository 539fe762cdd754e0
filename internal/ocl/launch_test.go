package ocl_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// launchExprs are the networks the launch tests drive: one pass of
// stencils, two passes with the stencil on a computed field, and nested
// stencils over three passes.
var launchExprs = []struct{ name, text string }{
	{"qcrit", vortex.QCritExpr},
	{"gradmag", vortex.GradMagExpr},
	{"nested", "g = grad3d(u, dims, x, y, z)\nh = grad3d(g[2] * v, dims, x, y, z)\nr = h[0] + w"},
}

// launchMesh builds a mesh of the given extents with the velocity fields
// on it, in arrays of the test's own.
func launchMesh(d mesh.Dims) (*mesh.Mesh, [3][]float32) {
	m := mesh.MustUniform(d, 1.0/float32(d.NX), 1.0/float32(d.NY), 1.0/float32(d.NZ))
	f := rtsim.Generate(m, rtsim.Options{Seed: 5})
	return m, [3][]float32{slices.Clone(f.U), slices.Clone(f.V), slices.Clone(f.W)}
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestOutputIndependentOfChunkLayout: every strategy's output, cold and
// warm, is bit for bit the same under device workers 1, 2 and 8 and
// grains 1, 512 and 4096, on meshes whose chunks start mid-row (64 x 3
// x 5) and mid-plane (5 x 64 x 3).
func TestOutputIndependentOfChunkLayout(t *testing.T) {
	for _, d := range []mesh.Dims{{NX: 64, NY: 3, NZ: 5}, {NX: 5, NY: 64, NZ: 3}} {
		m, fields := launchMesh(d)
		bind, err := strategy.BindMesh(m, map[string][]float32{"u": fields[0], "v": fields[1], "w": fields[2]})
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range launchExprs {
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

// TestOutputIndependentOfSchedule is the launch scheduler's property
// test: every strategy's output is the same, element for element (equal
// bits or both NaN), under GOMAXPROCS 1, 2 and 8 and under chunkings
// that force 1, 2, 3 and 7 chunks (uneven at both sizes), on 16³ and
// 33³ meshes, whichever goroutines the chunks land on.
func TestOutputIndependentOfSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every strategy over 24 schedules")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sameClass := func(a, b []float32) bool {
		return slices.EqualFunc(a, b, func(x, y float32) bool {
			return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
		})
	}
	for _, edge := range []int{16, 33} {
		m, fields := launchMesh(mesh.Dims{NX: edge, NY: edge, NZ: edge})
		bind, err := strategy.BindMesh(m, map[string][]float32{"u": fields[0], "v": fields[1], "w": fields[2]})
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range launchExprs {
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
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					for _, chunks := range []int{1, 2, 3, 7} {
						dev := ocl.NewDevice(ocl.XeonX5660Spec(64))
						dev.SetChunking(chunks, 1)
						res, err := strategy.Execute(s, ocl.NewEnv(dev), net, bind)
						if err != nil {
							t.Fatal(err)
						}
						if want == nil {
							want = res.Data
						} else if !sameClass(res.Data, want) {
							t.Fatalf("%d³, %s, %s: GOMAXPROCS %d, %d chunks differs from GOMAXPROCS 1, one chunk", edge, ex.name, name, procs, chunks)
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
// streaming@4, and a cold one. A warm bind of a field is a write whether
// or not the field changed; the mesh-derived dims, x, y and z are
// stable, so only their first bind is.
func TestFaultOperationOrder(t *testing.T) {
	tile := func(ops ...string) []string { return ops }
	repeat := func(n int, ops []string) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, ops...)
		}
		return out
	}
	warm := []string{"write u", "write v", "write w", "kernel kfused_expr", "read out"}
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
		{"fusion/unchanged", strategy.Strategy{Kind: strategy.Fusion}, true, nil, warm},
		{"fusion/one-changed", strategy.Strategy{Kind: strategy.Fusion}, true, []int{1}, warm},
		{"fusion/all-changed", strategy.Strategy{Kind: strategy.Fusion}, true, []int{0, 1, 2}, warm},
		{"streaming@4/unchanged", strategy.Strategy{Kind: strategy.Streaming, Tiles: 4}, true, nil,
			repeat(4, tile(warm...))},
		{"streaming@4/one-changed", strategy.Strategy{Kind: strategy.Streaming, Tiles: 4}, true, []int{1},
			repeat(4, tile(warm...))},
		{"streaming@4/all-changed", strategy.Strategy{Kind: strategy.Streaming, Tiles: 4}, true, []int{0, 1, 2},
			repeat(4, tile(warm...))},
	}
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	d := mesh.Dims{NX: 6, NY: 5, NZ: 8}
	for _, c := range cases {
		var got []string
		for i := 0; ; i++ {
			m, fields := launchMesh(d)
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

// TestNoHostArrayAtQuiescence: once an evaluation has returned, no
// resident slot holds an array the caller did not declare stable —
// after warm evaluations, and after one faulted at each of its device
// operations in turn, by an error or a panic — under every strategy
// with resident sources, roundtrip, and a merged network.
func TestNoHostArrayAtQuiescence(t *testing.T) {
	d := mesh.Dims{NX: 6, NY: 5, NZ: 8}
	m, fields := launchMesh(d)
	bind, err := strategy.BindMesh(m, map[string][]float32{"u": fields[0], "v": fields[1], "w": fields[2]})
	if err != nil {
		t.Fatal(err)
	}
	qcrit, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := expr.Compile(launchExprs[2].text)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := passes.MergeNetworks([]*dataflow.Network{nested, qcrit}, passes.LevelPaper, passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*dataflow.Network{"qcrit": qcrit, "merged": merged.Net}
	strats := []strategy.Strategy{
		{Kind: strategy.Fusion}, {Kind: strategy.Staged}, {Kind: strategy.Streaming, Tiles: 3}, {Kind: strategy.Roundtrip},
	}
	for name, net := range nets {
		for _, s := range strats {
			plan, err := s.Plan(net, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, effect := range []ocl.FaultEffect{ocl.EffectError, ocl.EffectPanic} {
				env := ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
				pool := env.Context().Pool()
				env.SetPool(pool)
				run := func(what string) (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
						if n := pool.HostAliases(); n != 0 {
							t.Fatalf("%s, %s, %v: %s: %d slots hold a host array", name, s, effect, what, n)
						}
					}()
					_, err = plan.Execute(env, bind)
					return err
				}
				for i := 0; i < 2; i++ {
					if err := run("warm"); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; ; i++ {
					env.Context().SetFaultPlan(ocl.NewFaultPlan(1).Add(ocl.FaultRule{Op: ocl.FaultAny, Nth: i, Effect: effect}))
					if run(fmt.Sprint("fault at operation ", i)) == nil {
						break
					}
				}
			}
		}
	}
}
