// Package mesh provides the 3-D rectilinear mesh substrate used by the
// derived-field framework: cell-centered field layout, point coordinate
// arrays, cell-center geometry, and the gradient stencil that the grad3d
// primitive and the reference kernels are built on. It also models ghost
// (halo) cell regions for the distributed-memory evaluation.
package mesh

import (
	"fmt"
	"math"
)

// Dims is the cell extent of a rectilinear mesh. Fields are cell-centered
// (one value per cell) and coordinate arrays are point-centered (Nx+1
// points along X, and so on), matching the paper's RT data layout.
type Dims struct {
	NX, NY, NZ int
}

// Cells returns the total number of cells.
func (d Dims) Cells() int { return d.NX * d.NY * d.NZ }

// Index linearizes cell coordinates in X-fastest order, the layout VTK
// and the paper's NumPy arrays use.
func (d Dims) Index(i, j, k int) int { return i + d.NX*(j+d.NY*k) }

// Coords inverts Index.
func (d Dims) Coords(idx int) (i, j, k int) {
	i = idx % d.NX
	idx /= d.NX
	j = idx % d.NY
	k = idx / d.NY
	return
}

// String formats the dims as in the paper's Table I ("192 x 192 x 0256").
func (d Dims) String() string { return fmt.Sprintf("%d x %d x %04d", d.NX, d.NY, d.NZ) }

// Validate reports an error for non-positive extents.
func (d Dims) Validate() error {
	if d.NX <= 0 || d.NY <= 0 || d.NZ <= 0 {
		return fmt.Errorf("mesh: invalid dims %dx%dx%d", d.NX, d.NY, d.NZ)
	}
	return nil
}

// Mesh is a 3-D rectilinear mesh: cell extents plus per-axis point
// coordinate arrays (len NX+1, NY+1, NZ+1). Spacing may be non-uniform.
type Mesh struct {
	Dims    Dims
	X, Y, Z []float32 // point coordinates along each axis
}

// NewUniform builds a mesh with uniform spacing dx, dy, dz and origin 0.
// Spacing must be positive and every resulting coordinate finite.
func NewUniform(d Dims, dx, dy, dz float32) (*Mesh, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !(dx > 0) || !(dy > 0) || !(dz > 0) {
		return nil, fmt.Errorf("mesh: spacing must be positive, got %g %g %g", dx, dy, dz)
	}
	m := &Mesh{
		Dims: d,
		X:    make([]float32, d.NX+1),
		Y:    make([]float32, d.NY+1),
		Z:    make([]float32, d.NZ+1),
	}
	for i := range m.X {
		m.X[i] = float32(i) * dx
	}
	for j := range m.Y {
		m.Y[j] = float32(j) * dy
	}
	for k := range m.Z {
		m.Z[k] = float32(k) * dz
	}
	if err := checkAxes(m.X, m.Y, m.Z); err != nil {
		return nil, err // an infinite spacing, or one overflowing at the far end
	}
	return m, nil
}

// NewRectilinear builds a mesh from explicit point coordinate arrays,
// which must be finite, strictly increasing and sized to the extents.
func NewRectilinear(x, y, z []float32) (*Mesh, error) {
	d := Dims{NX: len(x) - 1, NY: len(y) - 1, NZ: len(z) - 1}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := checkAxes(x, y, z); err != nil {
		return nil, err
	}
	return &Mesh{Dims: d, X: x, Y: y, Z: z}, nil
}

// checkAxes rejects point coordinates that are not finite or not
// strictly increasing. Every comparison is written so NaN fails it.
func checkAxes(x, y, z []float32) error {
	for a, c := range [3][]float32{x, y, z} {
		for i, v := range c {
			if !(math.Abs(float64(v)) <= math.MaxFloat32) {
				return fmt.Errorf("mesh: %c coordinate %d is %g, not finite", "xyz"[a], i, v)
			}
			if i > 0 && !(v > c[i-1]) {
				return fmt.Errorf("mesh: %c coordinates not strictly increasing at %d", "xyz"[a], i)
			}
		}
	}
	return nil
}

// MustUniform is NewUniform for tests and examples; it panics on error.
func MustUniform(d Dims, dx, dy, dz float32) *Mesh {
	m, err := NewUniform(d, dx, dy, dz)
	if err != nil {
		panic(err)
	}
	return m
}

// Cells returns the total number of cells.
func (m *Mesh) Cells() int { return m.Dims.Cells() }

// CellCenters returns per-axis cell-center coordinate arrays (len NX, NY,
// NZ): the midpoints of consecutive points. Gradients of cell-centered
// fields difference across cell centers.
func (m *Mesh) CellCenters() (cx, cy, cz []float32) {
	cx = centers(m.X)
	cy = centers(m.Y)
	cz = centers(m.Z)
	return
}

func centers(pts []float32) []float32 {
	c := make([]float32, len(pts)-1)
	for i := range c {
		c[i] = 0.5 * (pts[i] + pts[i+1])
	}
	return c
}

// CellCenterFields expands the per-axis cell-center coordinates into
// three problem-sized per-cell arrays — the "x, y, z input field arrays"
// the framework's grad3d primitive consumes. This is the form a host
// application like VisIt hands coordinate data to a Python expression
// (one value per cell), and it is what makes the vorticity-magnitude and
// Q-criterion runs carry 6 problem-sized inputs in the paper's memory
// study.
func (m *Mesh) CellCenterFields() (x, y, z []float32) {
	cx, cy, cz := m.CellCenters()
	d := m.Dims
	n := d.Cells()
	x = make([]float32, n)
	y = make([]float32, n)
	z = make([]float32, n)
	idx := 0
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			for i := 0; i < d.NX; i++ {
				x[idx] = cx[i]
				y[idx] = cy[j]
				z[idx] = cz[k]
				idx++
			}
		}
	}
	return
}

// Validate checks extents and coordinate array lengths.
func (m *Mesh) Validate() error {
	if err := m.Dims.Validate(); err != nil {
		return err
	}
	if len(m.X) != m.Dims.NX+1 || len(m.Y) != m.Dims.NY+1 || len(m.Z) != m.Dims.NZ+1 {
		return fmt.Errorf("mesh: coordinate arrays sized %d/%d/%d do not match dims %v",
			len(m.X), len(m.Y), len(m.Z), m.Dims)
	}
	return nil
}
