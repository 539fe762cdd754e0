package kernels

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dfg/internal/dataflow"
)

func TestGradAtDegenerateAxes(t *testing.T) {
	// 1x1x1 mesh: all gradient components must be zero.
	gx, gy, gz := GradAt([]float32{5}, []float32{0.5}, []float32{0.5}, []float32{0.5}, 1, 1, 1, 0)
	if gx != 0 || gy != 0 || gz != 0 {
		t.Fatalf("degenerate gradient must be zero: %v %v %v", gx, gy, gz)
	}
}

// TestGradRowsMatchesGradAt is the row walker's property test: over
// random meshes — every combination of 1-cell, 2-cell and longer axes —
// with non-uniform (and occasionally coincident) coordinates and fields
// salted with NaN, infinities, denormals and signed zeros, every window
// [base, base+len) that GradRows fills must equal the per-element
// oracle bit for bit. Windows start mid-row, end mid-row and straddle
// row and plane boundaries. (The gradient node kernels, which reach the
// walker through launch ranges, are held to the same oracle in
// TestGrad3DKernelMatchesMeshGradient.) Long axes
// reach 26 cells, so rows run the 8-wide body of diffRow several times
// and leave a tail; the whole property holds with and without it.
func TestGradRowsMatchesGradAt(t *testing.T) { eachDispatch(t, gradRowsMatchesGradAt) }

func gradRowsMatchesGradAt(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1e-42, -1e-42, 0, float32(math.Copysign(0, -1)), math.MaxFloat32,
	}
	salted := func(n int, p float64) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32()*8 - 4
			if rng.Float64() < p {
				v[i] = special[rng.Intn(len(special))]
			}
		}
		return v
	}
	extent := func(class int) int { // 0: one cell, 1: two cells, 2: longer
		if class < 2 {
			return class + 1
		}
		return 3 + rng.Intn(24)
	}
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

	for combo := 0; combo < 27; combo++ {
		for trial := 0; trial < 4; trial++ {
			nx, ny, nz := extent(combo%3), extent(combo/3%3), extent(combo/9)
			n := nx * ny * nz
			// Per-cell centers of a non-uniform rectilinear mesh, with a
			// few coincident neighbours (zero spacing) salted in.
			axis := func(m int) []float32 {
				c := make([]float32, m)
				at := rng.Float32()
				for i := range c {
					c[i] = at
					if rng.Intn(8) > 0 {
						at += 0.1 + rng.Float32()
					}
				}
				return c
			}
			ax, ay, az := axis(nx), axis(ny), axis(nz)
			coords := [3][]float32{make([]float32, n), make([]float32, n), make([]float32, n)}
			for idx := 0; idx < n; idx++ {
				coords[0][idx], coords[1][idx], coords[2][idx] = ax[idx%nx], ay[idx/nx%ny], az[idx/(nx*ny)]
			}
			field := salted(n, 0.1)

			want := [3][]float32{make([]float32, n), make([]float32, n), make([]float32, n)}
			for idx := 0; idx < n; idx++ {
				want[0][idx], want[1][idx], want[2][idx] = GradAt(field, coords[0], coords[1], coords[2], nx, ny, nz, idx)
				for a := 0; a < 3; a++ {
					if g := GradAxisAt(field, coords[0], coords[1], coords[2], nx, ny, nz, idx, a); !same(g, want[a][idx]) {
						t.Fatalf("%dx%dx%d cell %d axis %d: the oracles disagree: %v vs %v", nx, ny, nz, idx, a, g, want[a][idx])
					}
				}
			}

			windows := [][2]int{{0, n}, {0, 0}, {n, n}, {n - 1, n}}
			for w := 0; w < 40; w++ {
				lo := rng.Intn(n)
				windows = append(windows, [2]int{lo, lo + rng.Intn(n-lo+1)})
			}
			for r := 0; r+nx <= n; r += nx { // one cell either side of every row end
				windows = append(windows, [2]int{r, r + nx}, [2]int{max(r-1, 0), min(r+nx+1, n)})
			}
			for _, w := range windows {
				lo, hi := w[0], w[1]
				for a := 0; a < 3; a++ {
					// Guard cells either side catch a write outside dst.
					buf := make([]float32, hi-lo+2)
					buf[0], buf[len(buf)-1] = 77, 77
					GradRows(buf[1:len(buf)-1], field, coords[a], a, nx, ny, nz, lo)
					if buf[0] != 77 || buf[len(buf)-1] != 77 {
						t.Fatalf("%dx%dx%d axis %d [%d,%d): wrote outside dst", nx, ny, nz, a, lo, hi)
					}
					for e, g := range buf[1 : len(buf)-1] {
						if !same(g, want[a][lo+e]) {
							t.Fatalf("%dx%dx%d axis %d window [%d,%d) cell %d: GradRows %v (%#x), GradAt %v (%#x)",
								nx, ny, nz, a, lo, hi, lo+e, g, math.Float32bits(g), want[a][lo+e], math.Float32bits(want[a][lo+e]))
						}
					}
				}
			}
		}
	}
}

// TestGradRowsRejectsBadGeometry: extents below one or a window past the
// mesh are a caller bug the walker reports once, by panicking, rather
// than looping forever on an empty row or reading a neighbour that is
// not there.
func TestGradRowsRejectsBadGeometry(t *testing.T) {
	f := make([]float32, 8)
	for _, c := range []struct{ nx, ny, nz, base, n int }{
		{0, 2, 4, 0, 8}, {2, 0, 4, 0, 8}, {2, 2, 0, 0, 8}, {-2, -2, 2, 0, 8},
		{2, 2, 2, 1, 8}, {2, 2, 1, 0, 8}, {2, 2, 2, -1, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GradRows accepted %+v", c)
				}
			}()
			GradRows(make([]float32, c.n), f, f, 1, c.nx, c.ny, c.nz, c.base)
		}()
	}
}

func TestDimsArray(t *testing.T) {
	d := DimsArray(3, 5, 7)
	if len(d) != 4 || d[0] != 3 || d[1] != 5 || d[2] != 7 || d[3] != 0 {
		t.Fatalf("dims array wrong: %v", d)
	}
}

func TestExprTemplateCoversElementwisePrimitives(t *testing.T) {
	// Every row is a registered elementwise filter with the same arity,
	// one %s per operand and one lane body. (dataflow's TestRegistry
	// checks that every elementwise filter has a row.)
	for _, p := range Primitives() {
		f, ok := dataflow.Callable(p.Name)
		if !ok {
			t.Errorf("%q: no callable registry row", p.Name)
			continue
		}
		fi := f.Info()
		if fi.Class != dataflow.ClassElementwise || fi.OutWidth != 1 {
			t.Errorf("%q: row %+v, registry %+v", p.Name, p, fi)
			continue
		}
		if q, _ := Lookup(p.Name); q.Name != p.Name {
			t.Errorf("%q: Lookup returns row %q", p.Name, q.Name)
		}
		// Exactly the lane body of the row's arity is set.
		bodies := [4]bool{1: p.Unary != nil, 2: p.Binary != nil, 3: p.Ternary != nil}
		want := [4]bool{}
		want[fi.Arity] = true
		if bodies != want || p.Arity != fi.Arity || strings.Count(p.Expr, "%s") != fi.Arity || strings.Count(p.Expr, "%") != fi.Arity {
			t.Errorf("%q: lane bodies %v, arity %d, template %q; the registry says arity %d", p.Name, bodies[1:], p.Arity, p.Expr, fi.Arity)
		}
	}
}
