package rtsim

import (
	"math"
	"testing"

	"dfg/internal/mesh"
	"dfg/internal/vortex"
)

func testMesh() *mesh.Mesh {
	return mesh.MustUniform(mesh.Dims{NX: 24, NY: 24, NZ: 32}, 1.0/24, 1.0/24, 1.0/32)
}

func TestGenerateDeterministic(t *testing.T) {
	m := testMesh()
	a := Generate(m, Options{Seed: 11})
	b := Generate(m, Options{Seed: 11})
	for i := range a.U {
		if a.U[i] != b.U[i] || a.V[i] != b.V[i] || a.W[i] != b.W[i] {
			t.Fatalf("same seed must generate identical fields (cell %d)", i)
		}
	}
	c := Generate(m, Options{Seed: 12})
	same := true
	for i := range a.W {
		if a.W[i] != c.W[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should generate different fields")
	}
}

func TestGenerateFiniteAndStructured(t *testing.T) {
	m := testMesh()
	f := Generate(m, Options{Seed: 3})
	var min, max float32 = math.MaxFloat32, -math.MaxFloat32
	for _, arr := range [][]float32{f.U, f.V, f.W} {
		for _, v := range arr {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatal("generated field contains non-finite values")
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if max-min < 0.1 {
		t.Fatalf("field should have structure, range [%v, %v]", min, max)
	}
}

func TestGeneratedFieldHasVorticalFeatures(t *testing.T) {
	// The whole point of the synthetic RT field is that the paper's
	// vortex-detection expressions find something: vorticity magnitude
	// must be substantially non-zero and Q must change sign.
	m := testMesh()
	f := Generate(m, Options{Seed: 5})
	vm := vortex.VorticityMagnitude(f.U, f.V, f.W, m)
	q := vortex.QCriterion(f.U, f.V, f.W, m)
	var maxVort float64
	pos, neg := 0, 0
	for i := range vm {
		if d := float64(vm[i]); d > maxVort {
			maxVort = d
		}
		if q[i] > 0 {
			pos++
		}
		if q[i] < 0 {
			neg++
		}
	}
	if maxVort < 1 {
		t.Fatalf("max |vorticity| = %v, expected strong local spin", maxVort)
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("Q-criterion should mark both vortical (Q>0) and strained (Q<0) regions: pos=%d neg=%d", pos, neg)
	}
}

func TestSubField(t *testing.T) {
	m := testMesh()
	f := Generate(m, Options{Seed: 9})
	e := mesh.Extent{Lo: [3]int{4, 6, 8}, Hi: [3]int{12, 14, 20}}
	sub, err := f.SubField(e)
	if err != nil {
		t.Fatal(err)
	}
	ld := e.Dims()
	if sub.Mesh.Dims != ld {
		t.Fatalf("subfield dims %v want %v", sub.Mesh.Dims, ld)
	}
	for k := 0; k < ld.NZ; k++ {
		for j := 0; j < ld.NY; j++ {
			for i := 0; i < ld.NX; i++ {
				g := m.Dims.Index(i+4, j+6, k+8)
				l := ld.Index(i, j, k)
				if sub.U[l] != f.U[g] || sub.V[l] != f.V[g] || sub.W[l] != f.W[g] {
					t.Fatalf("subfield mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	if _, err := f.SubField(mesh.Extent{Lo: [3]int{0, 0, 0}, Hi: [3]int{100, 1, 1}}); err == nil {
		t.Error("out-of-range extent must fail")
	}
}

func TestTableIGridsPaperScale(t *testing.T) {
	grids := TableIGrids(1)
	if len(grids) != 12 {
		t.Fatalf("Table I has 12 sub-grids, got %d", len(grids))
	}
	// Row 1: 192 x 192 x 0256, 9,437,184 cells.
	if grids[0].Dims != (mesh.Dims{NX: 192, NY: 192, NZ: 256}) || grids[0].Cells != 9437184 {
		t.Fatalf("row 1 wrong: %+v", grids[0])
	}
	// Row 12: 192 x 192 x 3072, 113,246,208 cells.
	if grids[11].Dims != (mesh.Dims{NX: 192, NY: 192, NZ: 3072}) || grids[11].Cells != 113246208 {
		t.Fatalf("row 12 wrong: %+v", grids[11])
	}
	// Data sizes track Table I (3 x float64 per cell): row 1 ~218 MB,
	// row 12 ~2.6 GB, within a few percent of the published numbers.
	if mb := float64(grids[0].DataBytes) / (1 << 20); math.Abs(mb-218) > 10 {
		t.Fatalf("row 1 data size %.0f MB, Table I says 218 MB", mb)
	}
	if gb := float64(grids[11].DataBytes) / (1 << 30); math.Abs(gb-2.6) > 0.15 {
		t.Fatalf("row 12 data size %.2f GB, Table I says 2.6 GB", gb)
	}
	// Sizes are strictly increasing.
	for i := 1; i < 12; i++ {
		if grids[i].Cells <= grids[i-1].Cells {
			t.Fatal("grid sizes must increase")
		}
	}
}

func TestTableIGridsScaled(t *testing.T) {
	grids := TableIGrids(4)
	if grids[0].Dims != (mesh.Dims{NX: 48, NY: 48, NZ: 64}) {
		t.Fatalf("scaled row 1: %v", grids[0].Dims)
	}
	if grids[11].Dims != (mesh.Dims{NX: 48, NY: 48, NZ: 768}) {
		t.Fatalf("scaled row 12: %v", grids[11].Dims)
	}
	// Cell counts scale by exactly linScale^3 = 64.
	paper := TableIGrids(1)
	for i := range grids {
		if grids[i].Cells*64 != paper[i].Cells {
			t.Fatalf("row %d: scaled cells %d x64 != paper %d", i, grids[i].Cells, paper[i].Cells)
		}
	}
	if TableIGrids(0)[0].Dims != paper[0].Dims {
		t.Error("linScale < 1 should clamp to 1")
	}
}

func TestGridDataSizeFormat(t *testing.T) {
	g := Grid{DataBytes: 218 << 20}
	if got := g.DataSize(); got != "218 MB" {
		t.Fatalf("MB format: %q", got)
	}
	g = Grid{DataBytes: 2792402821} // ~2.6 GiB
	if got := g.DataSize(); got != "2.6 GB" {
		t.Fatalf("GB format: %q", got)
	}
}

func TestFullTimeStep(t *testing.T) {
	domain, parts := FullTimeStep(1)
	if domain != (mesh.Dims{NX: 3072, NY: 3072, NZ: 3072}) {
		t.Fatalf("full domain: %v", domain)
	}
	boxes, err := mesh.Split(domain, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 3072 {
		t.Fatalf("paper decomposition has 3072 sub-grids, got %d", len(boxes))
	}
	if boxes[0].Dims() != (mesh.Dims{NX: 192, NY: 192, NZ: 256}) {
		t.Fatalf("sub-grid dims: %v", boxes[0].Dims())
	}
	sd, sp := FullTimeStep(4)
	sb, err := mesh.Split(sd, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb) != 3072 || sb[0].Dims() != (mesh.Dims{NX: 48, NY: 48, NZ: 64}) {
		t.Fatalf("scaled decomposition: %d blocks of %v", len(sb), sb[0].Dims())
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.defaults()
	if o.Modes != 8 || o.VortexStrength != 1 || o.PlumeStrength != 1 || o.ShearStrength != 0.5 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}
