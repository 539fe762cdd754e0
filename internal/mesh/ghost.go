package mesh

import "fmt"

// Extent is a half-open box of cells [Lo, Hi) in the global cell index
// space of a larger mesh. It is the one currency for sub-boxes: the
// distributed-memory evaluation decomposes the paper's 3072^3 mesh into
// 3072 such sub-grids, streaming cuts a mesh into Z slabs, and both grow
// each box by a ghost stencil so gradients are correct at box boundaries.
type Extent struct {
	Lo, Hi [3]int
}

// Dims returns the cell extent of the box.
func (e Extent) Dims() Dims {
	return Dims{NX: e.Hi[0] - e.Lo[0], NY: e.Hi[1] - e.Lo[1], NZ: e.Hi[2] - e.Lo[2]}
}

// Cells returns the number of cells in the box.
func (e Extent) Cells() int { return e.Dims().Cells() }

// Grow expands the box by g ghost layers on every face, clipped to the
// global domain — exactly what VisIt's ghost-data generation hands the
// framework: interior cells plus a stencil of duplicated neighbour cells.
// A box that already spans an axis of the domain does not grow along it,
// so a Z slab grows by a Z-only halo.
func (e Extent) Grow(g int, domain Dims) Extent {
	max := [3]int{domain.NX, domain.NY, domain.NZ}
	out := e
	for a := 0; a < 3; a++ {
		out.Lo[a] -= g
		if out.Lo[a] < 0 {
			out.Lo[a] = 0
		}
		out.Hi[a] += g
		if out.Hi[a] > max[a] {
			out.Hi[a] = max[a]
		}
	}
	return out
}

// Split cuts the domain into parts[0] x parts[1] x parts[2] boxes. Axis
// a of extent n is cut at n·t/parts[a] for t = 0..parts[a], so extents
// need not divide evenly and box sizes differ by at most one cell per
// axis. Boxes are returned in X-fastest order.
func Split(domain Dims, parts [3]int) ([]Extent, error) {
	n := [3]int{domain.NX, domain.NY, domain.NZ}
	for a := 0; a < 3; a++ {
		if parts[a] < 1 || parts[a] > n[a] {
			return nil, fmt.Errorf("mesh: cannot split extent %d into %d parts (axis %d)", n[a], parts[a], a)
		}
	}
	out := make([]Extent, 0, parts[0]*parts[1]*parts[2])
	for k := 0; k < parts[2]; k++ {
		for j := 0; j < parts[1]; j++ {
			for i := 0; i < parts[0]; i++ {
				var e Extent
				for a, t := range [3]int{i, j, k} {
					e.Lo[a], e.Hi[a] = n[a]*t/parts[a], n[a]*(t+1)/parts[a]
				}
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// CopyBox copies the cells of box, in global coordinates, from src laid
// out over srcBox to dst laid out over dstBox, row by row; every cell
// carries width values. It is the ghost-data exchange (global arrays to a
// haloed block; in a real MPI run the duplicated cells come from
// neighbour ranks, the data is identical) and its inverse (a block's or
// tile's interior back into the global result).
func CopyBox(dst []float32, dstBox Extent, src []float32, srcBox Extent, box Extent, width int) error {
	if len(src) != srcBox.Cells()*width || len(dst) != dstBox.Cells()*width {
		return fmt.Errorf("mesh: copy needs %d source and %d destination values of width %d, got %d and %d",
			srcBox.Cells()*width, dstBox.Cells()*width, width, len(src), len(dst))
	}
	for a := 0; a < 3; a++ {
		if box.Lo[a] >= box.Hi[a] || box.Lo[a] < max(srcBox.Lo[a], dstBox.Lo[a]) || box.Hi[a] > min(srcBox.Hi[a], dstBox.Hi[a]) {
			return fmt.Errorf("mesh: copy box %v is empty or outside %v or %v (axis %d)", box, srcBox, dstBox, a)
		}
	}
	sd, dd := srcBox.Dims(), dstBox.Dims()
	row := (box.Hi[0] - box.Lo[0]) * width
	for k := box.Lo[2]; k < box.Hi[2]; k++ {
		for j := box.Lo[1]; j < box.Hi[1]; j++ {
			s := sd.Index(box.Lo[0]-srcBox.Lo[0], j-srcBox.Lo[1], k-srcBox.Lo[2]) * width
			d := dd.Index(box.Lo[0]-dstBox.Lo[0], j-dstBox.Lo[1], k-dstBox.Lo[2]) * width
			copy(dst[d:d+row], src[s:s+row])
		}
	}
	return nil
}

// Submesh slices a mesh down to box e: the sub-grid's coordinate arrays
// are the corresponding windows of the parent's point coordinates.
func Submesh(m *Mesh, e Extent) (*Mesh, error) {
	d := m.Dims
	for a, n := range [3]int{d.NX, d.NY, d.NZ} {
		if e.Lo[a] < 0 || e.Hi[a] > n || e.Lo[a] >= e.Hi[a] {
			return nil, fmt.Errorf("mesh: extent %v out of range of mesh %v (axis %d)", e, d, a)
		}
	}
	return &Mesh{
		Dims: e.Dims(),
		X:    m.X[e.Lo[0] : e.Hi[0]+1],
		Y:    m.Y[e.Lo[1] : e.Hi[1]+1],
		Z:    m.Z[e.Lo[2] : e.Hi[2]+1],
	}, nil
}
