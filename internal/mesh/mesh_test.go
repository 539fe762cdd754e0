package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDimsIndexCoordsRoundTrip(t *testing.T) {
	d := Dims{NX: 7, NY: 5, NZ: 3}
	seen := make(map[int]bool)
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				idx := d.Index(i, j, k)
				if idx < 0 || idx >= d.Cells() {
					t.Fatalf("index out of range: %d", idx)
				}
				if seen[idx] {
					t.Fatalf("index collision at %d", idx)
				}
				seen[idx] = true
				gi, gj, gk := d.Coords(idx)
				if gi != i || gj != j || gk != k {
					t.Fatalf("coords(%d) = %d,%d,%d want %d,%d,%d", idx, gi, gj, gk, i, j, k)
				}
			}
		}
	}
	if len(seen) != d.Cells() {
		t.Fatalf("index did not cover all %d cells", d.Cells())
	}
}

func TestDimsIndexCoordsProperty(t *testing.T) {
	f := func(a, b, c uint8, pick uint16) bool {
		d := Dims{NX: int(a%13) + 1, NY: int(b%13) + 1, NZ: int(c%13) + 1}
		idx := int(pick) % d.Cells()
		i, j, k := d.Coords(idx)
		inside := i >= 0 && i < d.NX && j >= 0 && j < d.NY && k >= 0 && k < d.NZ
		return inside && d.Index(i, j, k) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDimsStringMatchesTableI(t *testing.T) {
	d := Dims{NX: 192, NY: 192, NZ: 256}
	if got := d.String(); got != "192 x 192 x 0256" {
		t.Fatalf("dims string %q does not match Table I format", got)
	}
	if d.Cells() != 9437184 {
		t.Fatalf("192x192x256 should be 9,437,184 cells (Table I row 1), got %d", d.Cells())
	}
}

func TestDimsValidate(t *testing.T) {
	if err := (Dims{1, 1, 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Dims{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if err := d.Validate(); err == nil {
			t.Errorf("dims %v should be invalid", d)
		}
	}
}

func TestNewUniform(t *testing.T) {
	m, err := NewUniform(Dims{4, 3, 2}, 0.5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.X) != 5 || len(m.Y) != 4 || len(m.Z) != 3 {
		t.Fatalf("coordinate lengths: %d %d %d", len(m.X), len(m.Y), len(m.Z))
	}
	if m.X[4] != 2.0 || m.Y[3] != 3.0 || m.Z[2] != 4.0 {
		t.Fatalf("coordinate values wrong: %v %v %v", m.X, m.Y, m.Z)
	}
	if _, err := NewUniform(Dims{0, 1, 1}, 1, 1, 1); err == nil {
		t.Error("invalid dims must fail")
	}
	if _, err := NewUniform(Dims{1, 1, 1}, 0, 1, 1); err == nil {
		t.Error("zero spacing must fail")
	}
}

func TestNewRectilinear(t *testing.T) {
	m, err := NewRectilinear([]float32{0, 1, 3}, []float32{0, 2}, []float32{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims != (Dims{2, 1, 3}) {
		t.Fatalf("dims: %v", m.Dims)
	}
	if _, err := NewRectilinear([]float32{0, 1, 1}, []float32{0, 1}, []float32{0, 1}); err == nil {
		t.Error("non-increasing coordinates must fail")
	}
	if _, err := NewRectilinear([]float32{0}, []float32{0, 1}, []float32{0, 1}); err == nil {
		t.Error("single-point axis must fail")
	}
}

func TestCellCenters(t *testing.T) {
	m := MustUniform(Dims{3, 2, 2}, 2, 2, 2)
	cx, cy, cz := m.CellCenters()
	want := []float32{1, 3, 5}
	for i, w := range want {
		if cx[i] != w {
			t.Fatalf("cx[%d] = %v want %v", i, cx[i], w)
		}
	}
	if len(cy) != 2 || len(cz) != 2 || cy[1] != 3 || cz[0] != 1 {
		t.Fatalf("cy=%v cz=%v", cy, cz)
	}
}

// fillLinear sets f = a*x + b*y + c*z at cell centers.
func fillLinear(m *Mesh, a, b, c float32) []float32 {
	cx, cy, cz := m.CellCenters()
	f := make([]float32, m.Cells())
	d := m.Dims
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				f[d.Index(i, j, k)] = a*cx[i] + b*cy[j] + c*cz[k]
			}
		}
	}
	return f
}

func TestGradientExactOnLinearField(t *testing.T) {
	// Central and one-sided differences are exact for linear fields, so
	// every cell — including boundaries — must recover (a, b, c).
	for _, tc := range []struct {
		name string
		m    *Mesh
	}{
		{"uniform", MustUniform(Dims{6, 5, 4}, 0.7, 1.1, 0.4)},
		{"nonuniform", func() *Mesh {
			x := []float32{0, 0.5, 1.7, 2.0, 4.1, 4.5, 6.0}
			y := []float32{-1, 0, 2, 2.5, 5}
			z := []float32{0, 3, 3.5, 7}
			m, _ := NewRectilinear(x, y, z)
			return m
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const a, b, c = 2.5, -1.25, 0.75
			f := fillLinear(tc.m, a, b, c)
			g := Gradient3D(f, tc.m)
			for idx := 0; idx < tc.m.Cells(); idx++ {
				gx, gy, gz, pad := g[4*idx], g[4*idx+1], g[4*idx+2], g[4*idx+3]
				if !close32(gx, a, 1e-4) || !close32(gy, b, 1e-4) || !close32(gz, c, 1e-4) {
					i, j, k := tc.m.Dims.Coords(idx)
					t.Fatalf("cell (%d,%d,%d): grad = (%v,%v,%v) want (%v,%v,%v)", i, j, k, gx, gy, gz, a, b, c)
				}
				if pad != 0 {
					t.Fatal("float4 pad component must be zero")
				}
			}
		})
	}
}

func TestGradientQuadraticInterior(t *testing.T) {
	// Central differencing is exact for quadratics on a uniform mesh at
	// interior cells: d/dx (x^2) = 2x.
	m := MustUniform(Dims{8, 4, 4}, 0.5, 0.5, 0.5)
	cx, _, _ := m.CellCenters()
	d := m.Dims
	f := make([]float32, m.Cells())
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				f[d.Index(i, j, k)] = cx[i] * cx[i]
			}
		}
	}
	g := Gradient3D(f, m)
	for i := 1; i < d.NX-1; i++ {
		idx := d.Index(i, 2, 2)
		if want := 2 * cx[i]; !close32(g[4*idx], want, 1e-3) {
			t.Fatalf("interior d/dx x^2 at i=%d: got %v want %v", i, g[4*idx], want)
		}
	}
}

func TestGradientDegenerateAxis(t *testing.T) {
	// A single-cell axis has no neighbours; the gradient component must
	// be zero rather than dividing by a zero spacing.
	m := MustUniform(Dims{4, 1, 1}, 1, 1, 1)
	f := []float32{1, 2, 4, 8}
	g := Gradient3D(f, m)
	for idx := 0; idx < 4; idx++ {
		if g[4*idx+1] != 0 || g[4*idx+2] != 0 {
			t.Fatalf("degenerate axes must have zero gradient, got %v %v", g[4*idx+1], g[4*idx+2])
		}
	}
	// X still differences: one-sided at ends, central inside.
	if !close32(g[0], 1, 1e-6) { // (2-1)/1
		t.Fatalf("left one-sided: %v", g[0])
	}
	if !close32(g[4], 1.5, 1e-6) { // (4-1)/2
		t.Fatalf("central at i=1: %v", g[4])
	}
	if !close32(g[12], 4, 1e-6) { // (8-4)/1
		t.Fatalf("right one-sided: %v", g[12])
	}
}

func close32(got, want, tol float32) bool {
	return float32(math.Abs(float64(got-want))) <= tol
}

// TestSplitCoversDomainDisjointly: every cell lies in exactly one box,
// and box (i, j, k) of the X-fastest order spans [n·t/p, n·(t+1)/p) on
// every axis, t being its position along that axis.
func TestSplitCoversDomainDisjointly(t *testing.T) {
	f := func(a, b, c, pa, pb, pc uint8) bool {
		d := Dims{NX: int(a%17) + 1, NY: int(b%17) + 1, NZ: int(c%17) + 1}
		parts := [3]int{int(pa)%d.NX + 1, int(pb)%d.NY + 1, int(pc)%d.NZ + 1}
		boxes, err := Split(d, parts)
		if err != nil || len(boxes) != parts[0]*parts[1]*parts[2] {
			return false
		}
		n := [3]int{d.NX, d.NY, d.NZ}
		pd := Dims{NX: parts[0], NY: parts[1], NZ: parts[2]}
		count := make([]int, d.Cells())
		for bi, e := range boxes {
			ti, tj, tk := pd.Coords(bi)
			for ax, pos := range [3]int{ti, tj, tk} {
				if e.Lo[ax] != n[ax]*pos/parts[ax] || e.Hi[ax] != n[ax]*(pos+1)/parts[ax] {
					return false
				}
			}
			for k := e.Lo[2]; k < e.Hi[2]; k++ {
				for j := e.Lo[1]; j < e.Hi[1]; j++ {
					for i := e.Lo[0]; i < e.Hi[0]; i++ {
						count[d.Index(i, j, k)]++
					}
				}
			}
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitPaperLayout(t *testing.T) {
	// The paper's 3072^3 mesh decomposes into 3072 sub-grids of
	// 192x192x256: a 16 x 16 x 12 block layout.
	d := Dims{3072, 3072, 3072}
	boxes, err := Split(d, [3]int{16, 16, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 3072 {
		t.Fatalf("want 3072 sub-grids, got %d", len(boxes))
	}
	for _, e := range boxes {
		if e.Dims() != (Dims{192, 192, 256}) {
			t.Fatalf("sub-grid dims %v, want 192x192x256", e.Dims())
		}
	}
}

func TestSplitErrors(t *testing.T) {
	for _, parts := range [][3]int{{5, 1, 1}, {1, 5, 1}, {1, 1, 5}, {0, 1, 1}, {1, 1, -1}} {
		if _, err := Split(Dims{4, 4, 4}, parts); err == nil {
			t.Errorf("split of 4x4x4 into %v must fail", parts)
		}
	}
}

func TestExtentGrowClipsAtDomain(t *testing.T) {
	domain := Dims{10, 10, 10}
	e := Extent{Lo: [3]int{0, 4, 8}, Hi: [3]int{2, 6, 10}}
	g := e.Grow(1, domain)
	want := Extent{Lo: [3]int{0, 3, 7}, Hi: [3]int{3, 7, 10}}
	if g != want {
		t.Fatalf("grow: got %v want %v", g, want)
	}
	if g.Cells() != 3*4*3 {
		t.Fatalf("grown cells: %d", g.Cells())
	}
	// Growing by zero is the identity.
	if e.Grow(0, domain) != e {
		t.Fatal("grow(0) must be identity")
	}
	// A Z slab spanning X and Y grows by a Z-only halo.
	slab := Extent{Lo: [3]int{0, 0, 4}, Hi: [3]int{10, 10, 6}}
	if g := slab.Grow(1, domain); g != (Extent{Lo: [3]int{0, 0, 3}, Hi: [3]int{10, 10, 7}}) {
		t.Fatalf("slab grow: got %v", g)
	}
}

// TestCopyBox round-trips a block through its ghost-grown layout: global
// to grown block, then the block's interior back into a fresh global
// array, at width 1 and width 4. A slice shorter than its layout fails.
func TestCopyBox(t *testing.T) {
	gd := Dims{7, 5, 4}
	whole := Extent{Hi: [3]int{gd.NX, gd.NY, gd.NZ}}
	box := Extent{Lo: [3]int{2, 1, 1}, Hi: [3]int{5, 4, 3}}
	grown := box.Grow(1, gd)
	for _, width := range []int{1, 4} {
		global := make([]float32, gd.Cells()*width)
		for i := range global {
			global[i] = float32(i)
		}
		block := make([]float32, grown.Cells()*width)
		if err := CopyBox(block, grown, global, whole, grown, width); err != nil {
			t.Fatal(err)
		}
		ld := grown.Dims()
		for k := 0; k < ld.NZ; k++ {
			for j := 0; j < ld.NY; j++ {
				for i := 0; i < ld.NX; i++ {
					for c := 0; c < width; c++ {
						g := gd.Index(i+grown.Lo[0], j+grown.Lo[1], k+grown.Lo[2])*width + c
						if got := block[ld.Index(i, j, k)*width+c]; got != global[g] {
							t.Fatalf("width %d: block cell (%d,%d,%d)[%d] = %v, want %v", width, i, j, k, c, got, global[g])
						}
					}
				}
			}
		}
		back := make([]float32, len(global))
		if err := CopyBox(back, whole, block, grown, box, width); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < gd.Cells(); idx++ {
			i, j, k := gd.Coords(idx)
			in := i >= box.Lo[0] && i < box.Hi[0] && j >= box.Lo[1] && j < box.Hi[1] && k >= box.Lo[2] && k < box.Hi[2]
			for c := 0; c < width; c++ {
				want := float32(0)
				if in {
					want = global[idx*width+c]
				}
				if back[idx*width+c] != want {
					t.Fatalf("width %d: global cell %d[%d] = %v, want %v", width, idx, c, back[idx*width+c], want)
				}
			}
		}
	}
	block := make([]float32, grown.Cells())
	if err := CopyBox(block, grown, make([]float32, 5), whole, grown, 1); err == nil {
		t.Error("short source slice must fail")
	}
	if err := CopyBox(block, grown, make([]float32, gd.Cells()), whole, whole, 1); err == nil {
		t.Error("a box outside the destination must fail")
	}
}

func TestSubmesh(t *testing.T) {
	m := MustUniform(Dims{8, 6, 4}, 1, 2, 3)
	e := Extent{Lo: [3]int{2, 1, 0}, Hi: [3]int{5, 4, 2}}
	sm, err := Submesh(m, e)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Dims != (Dims{3, 3, 2}) {
		t.Fatalf("submesh dims %v", sm.Dims)
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	if sm.X[0] != 2 || sm.X[3] != 5 || sm.Y[0] != 2 || sm.Z[2] != 6 {
		t.Fatalf("submesh coords wrong: X=%v Y=%v Z=%v", sm.X, sm.Y, sm.Z)
	}
	if _, err := Submesh(m, Extent{Lo: [3]int{0, 0, 0}, Hi: [3]int{9, 1, 1}}); err == nil {
		t.Error("out-of-range extent must fail")
	}
}

// TestGhostGradientMatchesGlobal is the core distributed-memory
// invariant: gradients computed on a ghost-grown block equal the global
// gradient bit for bit on the block's interior.
func TestGhostGradientMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gd := Dims{12, 10, 8}
	m := MustUniform(gd, 0.5, 0.5, 0.5)
	f := make([]float32, gd.Cells())
	for i := range f {
		f[i] = rng.Float32()
	}
	want := Gradient3D(f, m)

	boxes, err := Split(gd, [3]int{3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	whole := Extent{Hi: [3]int{gd.NX, gd.NY, gd.NZ}}
	for _, box := range boxes {
		grown := box.Grow(1, gd)
		sub, err := Submesh(m, grown)
		if err != nil {
			t.Fatal(err)
		}
		sf := make([]float32, grown.Cells())
		if err := CopyBox(sf, grown, f, whole, grown, 1); err != nil {
			t.Fatal(err)
		}
		got := make([]float32, len(want))
		if err := CopyBox(got, whole, Gradient3D(sf, sub), grown, box, 4); err != nil {
			t.Fatal(err)
		}
		for k := box.Lo[2]; k < box.Hi[2]; k++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				for i := box.Lo[0]; i < box.Hi[0]; i++ {
					gidx := gd.Index(i, j, k)
					for c := 0; c < 4; c++ {
						if !sameClass(got[4*gidx+c], want[4*gidx+c]) {
							t.Fatalf("block %v interior gradient differs at (%d,%d,%d) comp %d: %v vs %v",
								box, i, j, k, c, got[4*gidx+c], want[4*gidx+c])
						}
					}
				}
			}
		}
	}
}

// sameClass reports equal bits, or NaN on both sides.
func sameClass(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestGradientConvergenceOrder verifies the stencil's order of accuracy:
// on a smooth field, halving the spacing must shrink the interior error
// roughly 4x (second-order central differences) and the boundary error
// roughly 2x (first-order one-sided differences).
func TestGradientConvergenceOrder(t *testing.T) {
	errAt := func(n int) (interior, boundary float64) {
		m := MustUniform(Dims{NX: n, NY: 4, NZ: 4}, 2.0/float32(n), 0.5, 0.5)
		cx, _, _ := m.CellCenters()
		d := m.Dims
		f := make([]float32, m.Cells())
		for k := 0; k < d.NZ; k++ {
			for j := 0; j < d.NY; j++ {
				for i := 0; i < d.NX; i++ {
					x := float64(cx[i])
					f[d.Index(i, j, k)] = float32(math.Sin(3 * x))
				}
			}
		}
		g := Gradient3D(f, m)
		for i := 0; i < d.NX; i++ {
			idx := d.Index(i, 2, 2)
			want := 3 * math.Cos(3*float64(cx[i]))
			e := math.Abs(float64(g[4*idx]) - want)
			if i == 0 || i == d.NX-1 {
				if e > boundary {
					boundary = e
				}
			} else if e > interior {
				interior = e
			}
		}
		return
	}

	i32, b32 := errAt(32)
	i64, b64 := errAt(64)
	if ratio := i32 / i64; ratio < 3.2 || ratio > 4.8 {
		t.Errorf("interior error ratio %.2f, want ~4 (second order): %g -> %g", ratio, i32, i64)
	}
	if ratio := b32 / b64; ratio < 1.6 || ratio > 2.6 {
		t.Errorf("boundary error ratio %.2f, want ~2 (first order): %g -> %g", ratio, b32, b64)
	}
}

func TestCellCenterFields(t *testing.T) {
	m := MustUniform(Dims{NX: 3, NY: 2, NZ: 2}, 2, 4, 6)
	x, y, z := m.CellCenterFields()
	d := m.Dims
	if len(x) != d.Cells() || len(y) != d.Cells() || len(z) != d.Cells() {
		t.Fatal("coordinate fields must be problem sized")
	}
	cx, cy, cz := m.CellCenters()
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				idx := d.Index(i, j, k)
				if x[idx] != cx[i] || y[idx] != cy[j] || z[idx] != cz[k] {
					t.Fatalf("coordinate field wrong at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestMeshValidateBranches(t *testing.T) {
	m := MustUniform(Dims{NX: 2, NY: 2, NZ: 2}, 1, 1, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *m
	bad.X = bad.X[:2] // wrong length
	if err := bad.Validate(); err == nil {
		t.Error("short coordinate array must fail validation")
	}
	bad2 := *m
	bad2.Dims.NX = 0
	if err := bad2.Validate(); err == nil {
		t.Error("invalid dims must fail validation")
	}
}

func TestMustUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustUniform must panic on bad input")
		}
	}()
	MustUniform(Dims{NX: 0, NY: 1, NZ: 1}, 1, 1, 1)
}
