package strategy

import (
	"math"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/vortex"
)

// TestTableIIExactCounts is the paper's Table II, reproduced verbatim:
// host-to-device transfers (Dev-W), device-to-host transfers (Dev-R) and
// kernel executions (K-Exe) for the three vortex-detection expressions
// under the three execution strategies, from the parsed expression text.
func TestTableIIExactCounts(t *testing.T) {
	want := map[string]map[string][3]int{
		"VelMag": {
			"roundtrip": {11, 6, 6},
			"staged":    {3, 1, 6},
			"fusion":    {3, 1, 1},
		},
		"VortMag": {
			"roundtrip": {32, 12, 12},
			"staged":    {7, 1, 18},
			"fusion":    {7, 1, 1},
		},
		"Q-Crit": {
			"roundtrip": {123, 57, 57},
			"staged":    {7, 1, 67},
			"fusion":    {7, 1, 1},
		},
	}

	m := mesh.MustUniform(mesh.Dims{NX: 8, NY: 8, NZ: 8}, 1, 1, 1)
	f := rtsim.Generate(m, rtsim.Options{Seed: 1})
	bind, err := BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		t.Fatal(err)
	}

	for _, e := range vortex.Expressions() {
		net, err := expr.Compile(e.Text)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, sname := range Names() {
			s, _ := ForName(sname)
			res, err := Execute(s, cpuEnv(), net, bind)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, sname, err)
			}
			w := want[e.Name][sname]
			p := res.Profile
			if p.Writes != w[0] || p.Reads != w[1] || p.Kernels != w[2] {
				t.Errorf("%s/%s: Dev-W/Dev-R/K-Exe = %d/%d/%d, Table II says %d/%d/%d",
					e.Name, sname, p.Writes, p.Reads, p.Kernels, w[0], w[1], w[2])
			}
		}
	}
}

// TestPaperExpressionsNumericallyAgree validates every strategy's output
// for every paper expression against the independent golden
// implementations, on synthetic RT data.
func TestPaperExpressionsNumericallyAgree(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 16, NY: 12, NZ: 10}, 1.0/16, 1.0/12, 1.0/10)
	f := rtsim.Generate(m, rtsim.Options{Seed: 7})
	bind, err := BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		t.Fatal(err)
	}

	golden := map[string][]float32{
		"VelMag":  vortex.VelocityMagnitude(f.U, f.V, f.W),
		"VortMag": vortex.VorticityMagnitude(f.U, f.V, f.W, m),
		"Q-Crit":  vortex.QCriterion(f.U, f.V, f.W, m),
	}
	// Tolerances: gradient-heavy float32 chains accumulate a few ulps;
	// values are O(1)-O(30) on this mesh.
	tol := map[string]float64{"VelMag": 1e-5, "VortMag": 5e-4, "Q-Crit": 5e-2}

	for _, e := range vortex.Expressions() {
		net, err := expr.Compile(e.Text)
		if err != nil {
			t.Fatal(err)
		}
		want := golden[e.Name]
		for _, sname := range Names() {
			s, _ := ForName(sname)
			res, err := Execute(s, cpuEnv(), net, bind)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, sname, err)
			}
			for i := range want {
				if d := math.Abs(float64(res.Data[i] - want[i])); d > tol[e.Name] {
					t.Fatalf("%s/%s: cell %d: %v vs golden %v (|d|=%g)",
						e.Name, sname, i, res.Data[i], want[i], d)
				}
			}
		}
	}
}

// TestStrategiesBitwiseAgree checks that all six strategies, at both
// optimisation levels, agree with each other bit for bit — NaN payloads
// included: for the paper expressions and the two-pass gradient magnitude
// on turbulence data (same float32 operations in the same order per
// element), and for the primitives whose NaN and signed-zero behaviour
// the rendered OpenCL C fixes (fmin, fmax, fabs, comparisons, select) on
// every ordered pair of special values (every strategy runs, and O2
// folds through, the one lane body of each primitive).
func TestStrategiesBitwiseAgree(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 10, NY: 10, NZ: 8}, 0.1, 0.1, 0.125)
	f := rtsim.Generate(m, rtsim.Options{Seed: 3})
	turbulence, err := BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		t.Fatal(err)
	}

	var special []float32
	for _, bits := range []uint32{
		0x7fc00001, 0xffc00002, // NaNs, told apart by payload
		0x00000000, 0x80000000, // +0, -0
		0x7f800000, 0xff800000, // +Inf, -Inf
		0x00000001, 0x807fffff, // denormals
		0x3f800000, 0xc0200000, // 1, -2.5
	} {
		special = append(special, math.Float32frombits(bits))
	}
	L := len(special)
	u, v := make([]float32, L*L), make([]float32, L*L)
	for i := range u {
		u[i], v[i] = special[i/L], special[i%L]
	}
	pairs, err := BindMesh(mesh.MustUniform(mesh.Dims{NX: L, NY: L, NZ: 1}, 1, 1, 1), map[string][]float32{"u": u, "v": v})
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		name, text string
		bind       Bindings
	}
	rows := []row{{"GradMag", vortex.GradMagExpr, turbulence}}
	for _, e := range vortex.Expressions() {
		rows = append(rows, row{e.Name, e.Text, turbulence})
	}
	for _, text := range []string{
		"r = min(u, v)",
		"r = max(u, v)",
		"r = 1.0 / abs(u)",
		"r = u / abs(-(0.0))",
		// O2 folds this to three NaN constants of two payloads; keyed by
		// bits they stay apart, so O2 returns Paper's payload.
		"r = v + abs(-(0.0/0.0))",
		"r = if (u >= v) then (u) else (v)",
		"r = if (min(u, v) != max(v, u)) then (abs(u)) else (-abs(v))",
	} {
		rows = append(rows, row{text, text, pairs})
	}
	for _, r := range rows {
		var ref []float32
		for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
			net := compileAt(t, r.text, lvl)
			for _, sname := range append(ExtendedNames(), "tiered") {
				s, _ := ForName(sname)
				res, err := Execute(s, cpuEnv(), net, r.bind)
				if err != nil {
					t.Fatalf("%s/%s at %v: %v", r.name, sname, lvl, err)
				}
				if ref == nil {
					ref = res.Data
					continue
				}
				for i := range ref {
					if got, want := math.Float32bits(res.Data[i]), math.Float32bits(ref[i]); got != want {
						t.Errorf("%s/%s at %v: cell %d differs bitwise from roundtrip at paper: %v (%#08x) vs %v (%#08x)",
							r.name, sname, lvl, i, res.Data[i], got, ref[i], want)
						break
					}
				}
			}
		}
	}
}

func TestBindMeshValidation(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 4, NY: 4, NZ: 4}, 1, 1, 1)
	if _, err := BindMesh(m, map[string][]float32{"u": make([]float32, 3)}); err == nil {
		t.Fatal("short field must fail")
	}
	b, err := BindMesh(m, map[string][]float32{"u": make([]float32, 64)})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"u", "dims", "x", "y", "z"} {
		if _, ok := b.Sources[name]; !ok {
			t.Fatalf("binding missing %q", name)
		}
	}
	if b.N != 64 || len(b.Sources["x"].Data) != 64 || len(b.Sources["dims"].Data) != 4 {
		t.Fatalf("binding shapes wrong: %+v", b)
	}
}

// TestBindReadsInPlace: Bind reads the caller's map in place and
// allocates nothing, resolves every name BindMesh would — caller fields
// first, then the mesh's dims, x, y and z — and every strategy computes
// the same bits from it as from BindMesh's explicit Sources.
func TestBindReadsInPlace(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 6, NY: 5, NZ: 4}, 1, 1, 1)
	f := rtsim.Generate(m, rtsim.Options{Seed: 3})
	fields := map[string][]float32{"u": f.U, "v": f.V, "w": f.W}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Bind(0, fields, m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Bind over a mesh makes %.0f allocations, want 0", allocs)
	}
	ref, err := BindMesh(m, fields)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Bind(0, fields, m)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.N != ref.N {
		t.Fatalf("Bind spans %d cells, BindMesh %d", lazy.N, ref.N)
	}
	for name, want := range ref.Sources {
		got, ok := lazy.lookup(name)
		if !ok || &got.Data[0] != &want.Data[0] || len(got.Data) != len(want.Data) || got.Width != want.Width {
			t.Fatalf("Bind resolves %q to a different array than BindMesh", name)
		}
	}

	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{{Kind: Roundtrip}, {Kind: Staged}, {Kind: Fusion}, {Kind: Streaming, Tiles: 3}, {Kind: VM}, {Kind: Tiered, Threshold: 64}} {
		want, err := Execute(s, cpuEnv(), net, ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(s, cpuEnv(), net, lazy)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: cell %d differs between Bind and BindMesh", s.Name(), i)
			}
		}
	}

	// A caller's array wins over the mesh's, and is not taken for the
	// never-rewritten memo; a binding without a mesh has only the fields.
	own := make([]float32, m.Cells())
	b, err := Bind(0, map[string][]float32{"x": own}, m)
	if err != nil {
		t.Fatal(err)
	}
	if x, _ := b.lookup("x"); &x.Data[0] != &own[0] || b.stable(x.Data) {
		t.Fatal("a caller's x must win over the mesh's and not count as stable")
	}
	if y, _ := b.lookup("y"); !b.stable(y.Data) {
		t.Fatal("the mesh's y must count as stable")
	}
	flat, _ := Bind(7, fields, nil)
	if _, err := flat.source("dims"); flat.N != 7 || err == nil {
		t.Fatalf("a binding without a mesh: N = %d, dims lookup error %v", flat.N, err)
	}
	if _, err := Bind(0, map[string][]float32{"u": make([]float32, 3)}, m); err == nil {
		t.Fatal("a field shorter than the mesh must fail")
	}
}
