package strategy

import (
	"math"
	"math/rand"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/rtsim"
	"dfg/internal/vortex"
)

// TestExtensionExpressionsAgree validates the extension expressions
// (enstrophy, divergence, helicity) under every strategy against their
// golden implementations on RT data.
func TestExtensionExpressionsAgree(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 14, NY: 12, NZ: 10}, 1.0/14, 1.0/12, 1.0/10)
	f := rtsim.Generate(m, rtsim.Options{Seed: 23})
	bind, err := BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		text string
		want []float32
		tol  float64
	}{
		{"enstrophy", vortex.EnstrophyExpr, vortex.Enstrophy(f.U, f.V, f.W, m), 2e-2},
		{"divergence", vortex.DivergenceExpr, vortex.Divergence(f.U, f.V, f.W, m), 1e-3},
		{"helicity", vortex.HelicityExpr, vortex.Helicity(f.U, f.V, f.W, m), 1e-2},
	}
	for _, tc := range cases {
		net, err := expr.Compile(tc.text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, sname := range ExtendedNames() {
			s, _ := ForName(sname)
			res, err := Execute(s, cpuEnv(), net, bind)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, sname, err)
			}
			for i := range tc.want {
				if d := math.Abs(float64(res.Data[i] - tc.want[i])); d > tc.tol {
					t.Fatalf("%s/%s: cell %d: %v vs golden %v", tc.name, sname, i, res.Data[i], tc.want[i])
				}
			}
		}
	}
}

// TestDivergenceOfTaylorGreenNearZero is a physics check: the
// Taylor–Green component of the synthetic field is divergence-free, so
// with plumes and shear switched off, the measured divergence of the
// interior must be small relative to the velocity gradients.
func TestDivergenceOfTaylorGreenNearZero(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 32, NY: 32, NZ: 32}, 1.0/32, 1.0/32, 1.0/32)
	f := rtsim.Generate(m, rtsim.Options{
		Seed: 3, PlumeStrength: 1e-9, ShearStrength: 1e-9, VortexStrength: 1,
	})
	div := vortex.Divergence(f.U, f.V, f.W, m)
	vort := vortex.VorticityMagnitude(f.U, f.V, f.W, m)

	// Compare interior magnitudes (the stencil is second order inside,
	// first order at the boundary).
	d := m.Dims
	var maxDiv, maxVort float64
	for k := 2; k < d.NZ-2; k++ {
		for j := 2; j < d.NY-2; j++ {
			for i := 2; i < d.NX-2; i++ {
				idx := d.Index(i, j, k)
				if a := math.Abs(float64(div[idx])); a > maxDiv {
					maxDiv = a
				}
				if a := math.Abs(float64(vort[idx])); a > maxVort {
					maxVort = a
				}
			}
		}
	}
	if maxVort < 1 {
		t.Fatalf("Taylor-Green field should have O(2pi) vorticity, got %v", maxVort)
	}
	if maxDiv > 0.05*maxVort {
		t.Fatalf("interior divergence %v should be tiny next to vorticity %v", maxDiv, maxVort)
	}
}

// TestTranscendentalPrimitives validates exp/log/sin/cos/pow across all
// strategies against direct math computation.
func TestTranscendentalPrimitives(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(77))
	u := make([]float32, n)
	v := make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = rng.Float32()*2 + 0.1 // positive for log
		v[i] = rng.Float32() * 3
	}
	bind := Bindings{N: n, Sources: map[string]Source{
		"u": {Data: u, Width: 1},
		"v": {Data: v, Width: 1},
	}}
	net, err := expr.Compile("a = exp(sin(u)) + log(u) * cos(v)\nb = pow(u, v)\nout = a + b")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		fu, fv := float64(u[i]), float64(v[i])
		a := float32(math.Exp(float64(float32(math.Sin(fu))))) +
			float32(math.Log(fu))*float32(math.Cos(fv))
		b := float32(math.Pow(fu, fv))
		want[i] = float64(a + b)
	}
	for _, sname := range ExtendedNames() {
		s, _ := ForName(sname)
		res, err := Execute(s, cpuEnv(), net, bind)
		if err != nil {
			t.Fatalf("%s: %v", sname, err)
		}
		for i := 0; i < n; i++ {
			if d := math.Abs(float64(res.Data[i]) - want[i]); d > 1e-3*(1+math.Abs(want[i])) {
				t.Fatalf("%s: cell %d: %v vs %v", sname, i, res.Data[i], want[i])
			}
		}
	}
}
