package strategy

import (
	"math"
	"strings"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/rtsim"
)

// IntroExpr is the paper's introduction example, written in this
// framework's expression language (the paper shows VisIt-flavoured
// syntax; grad becomes the explicit grad3d primitive):
//
//	a = if (norm(grad(b)) > 5) then (c * c) else (-c * c)
const IntroExpr = `a = if (norm(grad3d(b,dims,x,y,z)) > 5) then (c * c) else (-c * c)`

// TestIntroductionExample runs the paper's opening example end to end
// under every strategy and checks it against a direct host computation.
func TestIntroductionExample(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 16, NY: 12, NZ: 10}, 1.0/16, 1.0/12, 1.0/10)
	f := rtsim.Generate(m, rtsim.Options{Seed: 31})
	bind, err := BindMesh(m, map[string][]float32{"b": f.U, "c": f.V})
	if err != nil {
		t.Fatal(err)
	}

	// Host golden: both branches everywhere, gradient-norm condition.
	grad := mesh.Gradient3D(f.U, m)
	want := make([]float32, m.Cells())
	taken := 0
	for i := range want {
		gx, gy, gz := float64(grad[4*i]), float64(grad[4*i+1]), float64(grad[4*i+2])
		cc := f.V[i] * f.V[i]
		if float32(math.Sqrt(gx*gx+gy*gy+gz*gz)) > 5 {
			want[i] = cc
			taken++
		} else {
			want[i] = -cc
		}
	}
	// The condition must actually split the domain, or the test is weak.
	if taken == 0 || taken == len(want) {
		t.Fatalf("intro example condition is degenerate: %d of %d cells", taken, len(want))
	}

	net, err := expr.Compile(IntroExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sname := range ExtendedNames() {
		s, _ := ForName(sname)
		res, err := Execute(s, cpuEnv(), net, bind)
		if err != nil {
			t.Fatalf("%s: %v", sname, err)
		}
		for i := range want {
			if d := math.Abs(float64(res.Data[i] - want[i])); d > 1e-4 {
				t.Fatalf("%s: cell %d: %v vs golden %v", sname, i, res.Data[i], want[i])
			}
		}
	}
}

// TestIntroExampleFusedSource checks the generated kernel uses the
// ternary select and the inline norm rather than extra buffers.
func TestIntroExampleFusedSource(t *testing.T) {
	net, err := expr.Compile(IntroExpr)
	if err != nil {
		t.Fatal(err)
	}
	src, err := GeneratedSource(net, "intro")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"? 1.0f : 0.0f", "!= 0.0f) ?", "sqrt(", "5.0f"} {
		if !strings.Contains(src, frag) {
			t.Fatalf("fused intro source missing %q:\n%s", frag, src)
		}
	}
}
