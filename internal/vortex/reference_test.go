package vortex

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dfg/internal/mesh"
	"dfg/internal/ocl"
)

// runReference executes a reference kernel on a CPU device environment.
func runReference(t *testing.T, name string, m *mesh.Mesh, u, v, w []float32) ([]float32, ocl.Profile) {
	t.Helper()
	k, argNames, err := ReferenceKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	env := ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
	cx, cy, cz := m.CellCenterFields()
	arrays := map[string][]float32{
		"u": u, "v": v, "w": w,
		"dims": {float32(m.Dims.NX), float32(m.Dims.NY), float32(m.Dims.NZ), 0},
		"x":    cx, "y": cy, "z": cz,
	}
	n := m.Cells()
	var bufs []*ocl.Buffer
	for _, an := range argNames {
		b, err := env.Upload(an, arrays[an], 1)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	out, err := env.NewBuffer("out", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	bufs = append(bufs, out)
	if err := env.Run(k, n, bufs); err != nil {
		t.Fatal(err)
	}
	got, err := env.Download(out)
	if err != nil {
		t.Fatal(err)
	}
	return got, env.Profile()
}

func randomVel(n int, seed int64) (u, v, w []float32) {
	rng := rand.New(rand.NewSource(seed))
	u = make([]float32, n)
	v = make([]float32, n)
	w = make([]float32, n)
	for i := 0; i < n; i++ {
		u[i] = rng.Float32()*2 - 1
		v[i] = rng.Float32()*2 - 1
		w[i] = rng.Float32()*2 - 1
	}
	return
}

func TestReferenceKernelsMatchGolden(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 14, NY: 10, NZ: 6}, 0.3, 0.5, 0.7)
	u, v, w := randomVel(m.Cells(), 21)

	golden := map[string][]float32{
		"VelMag":  VelocityMagnitude(u, v, w),
		"VortMag": VorticityMagnitude(u, v, w, m),
		"Q-Crit":  QCriterion(u, v, w, m),
	}
	for name, want := range golden {
		got, prof := runReference(t, name, m, u, v, w)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 2e-4 {
				t.Fatalf("%s: cell %d: reference %v vs golden %v", name, i, got[i], want[i])
			}
		}
		// Reference kernels have fusion's transfer profile: one upload
		// per input, one kernel, one read.
		if prof.Kernels != 1 || prof.Reads != 1 {
			t.Fatalf("%s: profile %+v, want 1 kernel / 1 read", name, prof)
		}
	}
}

func TestReferenceKernelTransferCounts(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 8, NY: 8, NZ: 8}, 1, 1, 1)
	u, v, w := randomVel(m.Cells(), 5)
	// VelMag: 3 uploads; VortMag and Q-Crit: 7 uploads — identical to
	// the fusion rows of Table II.
	wantWrites := map[string]int{"VelMag": 3, "VortMag": 7, "Q-Crit": 7}
	for name, ww := range wantWrites {
		_, prof := runReference(t, name, m, u, v, w)
		if prof.Writes != ww {
			t.Fatalf("%s: Dev-W = %d, want %d", name, prof.Writes, ww)
		}
	}
}

func TestReferenceKernelUnknown(t *testing.T) {
	if _, _, err := ReferenceKernel("Enstrophy"); err == nil {
		t.Fatal("unknown reference kernel must fail")
	}
}

func TestReferenceKernelSources(t *testing.T) {
	for _, name := range []string{"VelMag", "VortMag", "Q-Crit"} {
		k, args, err := ReferenceKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(k.Source, "__kernel void "+k.Name) {
			t.Errorf("%s: source missing entry point", name)
		}
		if k.NumBufs != len(args)+1 {
			t.Errorf("%s: NumBufs %d != %d args + out", name, k.NumBufs, len(args))
		}
	}
}

func TestExpressionsList(t *testing.T) {
	ex := Expressions()
	if len(ex) != 3 {
		t.Fatalf("want 3 expressions, got %d", len(ex))
	}
	names := []string{"VelMag", "VortMag", "Q-Crit"}
	for i, e := range ex {
		if e.Name != names[i] || e.Text == "" {
			t.Fatalf("expression %d: %+v", i, e)
		}
	}
}
