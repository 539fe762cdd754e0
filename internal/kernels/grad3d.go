package kernels

import "fmt"

// Grad3DFunction is the shared OpenCL C source function implementing the
// 3-D rectilinear mesh field gradient — the paper's example of a complex
// multi-line primitive ("requires over 50 lines of OpenCL source code").
// It is written once and included by every rendered kernel that takes a
// gradient — the fused kernels and the kgrad3d node kernel staged and
// roundtrip launch alike — which call it directly against device global
// memory.
//
// The field f is cell-centered. x, y and z are problem-sized coordinate
// field arrays carrying each cell's center coordinates — the form a host
// application hands coordinate data to the framework (the paper's "3
// additional input field arrays"). Interior cells use a central
// difference across neighbouring cell centers; boundary cells use a
// one-sided difference; a degenerate (single-cell) axis has zero
// gradient.
const Grad3DFunction = `// dfg primitive: grad3d (3D rectilinear mesh field gradient)
//
// f is a cell-centered scalar field; x, y, z are per-cell center
// coordinate arrays; dims packs the cell extents (nx, ny, nz).
// Interior cells difference across neighbouring cell centers along each
// axis; boundary cells fall back to one-sided differences; a single-cell
// axis contributes zero. Returns (df/dx, df/dy, df/dz, 0) as a float4.
inline float dfg_axis_diff(__global const float *f,
                           __global const float *coord,
                           int idx, int p, int n, int stride)
{
    if (n == 1) {
        return 0.0f;
    }
    if (p == 0) {
        return (f[idx + stride] - f[idx])
             / (coord[idx + stride] - coord[idx]);
    }
    if (p == n - 1) {
        return (f[idx] - f[idx - stride])
             / (coord[idx] - coord[idx - stride]);
    }
    return (f[idx + stride] - f[idx - stride])
         / (coord[idx + stride] - coord[idx - stride]);
}

// dfg_grad3d decomposes the linear cell index into (i, j, k) and
// differences the field along each axis; the result packs the three
// partial derivatives into a float4 (the .s3 lane is unused padding).
inline float4 dfg_grad3d(__global const float *f,
                         __global const float *dims,
                         __global const float *x,
                         __global const float *y,
                         __global const float *z,
                         int idx)
{
    int nx = (int)dims[0];
    int ny = (int)dims[1];
    int nz = (int)dims[2];

    int i = idx % nx;
    int rest = idx / nx;
    int j = rest % ny;
    int k = rest / ny;

    float4 g;
    g.s0 = dfg_axis_diff(f, x, idx, i, nx, 1);
    g.s1 = dfg_axis_diff(f, y, idx, j, ny, nx);
    g.s2 = dfg_axis_diff(f, z, idx, k, nz, nx * ny);
    g.s3 = 0.0f;
    return g;
}
`

// gradAxisDiff is the executable equivalent of dfg_axis_diff: coord is a
// per-cell center coordinate array varying along the axis with the given
// stride.
func gradAxisDiff(f, coord []float32, idx, p, n, stride int) float32 {
	switch {
	case n == 1:
		return 0
	case p == 0:
		return quotient(f, coord, idx, idx+stride)
	case p == n-1:
		return quotient(f, coord, idx-stride, idx)
	default:
		return quotient(f, coord, idx-stride, idx+stride)
	}
}

// quotient is every form of dfg_axis_diff: the difference quotient of f
// over coord between elements a and b.
func quotient(f, coord []float32, a, b int) float32 {
	return (f[b] - f[a]) / (coord[b] - coord[a])
}

// GradAt is the executable equivalent of dfg_grad3d: the gradient of the
// cell-centered field at linear cell idx. x, y and z are problem-sized
// per-cell center coordinate arrays. It is the per-element oracle
// (vmtest.Reference and the tests call it); everything that
// executes goes through GradRows.
func GradAt(field, x, y, z []float32, nx, ny, nz, idx int) (gx, gy, gz float32) {
	i := idx % nx
	rest := idx / nx
	j := rest % ny
	k := rest / ny
	gx = gradAxisDiff(field, x, idx, i, nx, 1)
	gy = gradAxisDiff(field, y, idx, j, ny, nx)
	gz = gradAxisDiff(field, z, idx, k, nz, nx*ny)
	return
}

// GradRows writes one component of the gradient for the len(dst) cells
// starting at linear cell base: dst[e] is what GradAxisAt returns for
// cell base+e, bit for bit. coord is the axis's per-cell center
// coordinate array. Where GradAt decomposes every cell index and picks
// its difference form per cell, GradRows runs gradAxisDiff's expression,
// division included, over sub-slices with no index arithmetic and no
// branch: along y and z it walks the runs of x-rows that share their two
// neighbour offsets — forward, backward or central — and picks them once
// per run; along x it is gradRowsX. The window may start and end mid-row
// and span plane boundaries. dst must not overlap f or coord.
//
// dims must describe the arrays: every extent >= 1 and the window inside
// nx*ny*nz cells. Callers validate bound dims before launching
// (strategy.DimsError), so a violation here is a bug or extents the
// network computed itself; it panics, once per call, instead of spinning
// on an empty row.
func GradRows(dst, f, coord []float32, axis, nx, ny, nz, base int) {
	if nx < 1 || ny < 1 || nz < 1 || base < 0 || base+len(dst) > nx*ny*nz {
		panic(fmt.Sprintf("kernels: GradRows: cells [%d, %d) outside a %dx%dx%d mesh", base, base+len(dst), nx, ny, nz))
	}
	// p is the cell's position along the differenced axis, n that axis's
	// extent and stride its distance between neighbours.
	n, stride := nx, 1
	switch axis {
	case 1:
		n, stride = ny, nx
	case 2:
		n, stride = nz, nx*ny
	}
	if n == 1 {
		clear(dst)
		return
	}
	if axis == 0 {
		gradRowsX(dst, f, coord, nx, nx*ny*nz, base)
		return
	}
	i := base % nx
	rest := base / nx
	j, k := rest%ny, rest/ny
	for idx := base; len(dst) > 0; {
		// The run is the rows from the current one on that share its
		// neighbour offsets: along y a face row alone or the interior
		// rows of a plane together, along z the rest of the plane.
		p, rows := j, 1
		if axis == 2 {
			p, rows = k, ny-j
		}
		var a, b int
		switch {
		case p == 0:
			a, b = 0, stride
		case p == n-1:
			a, b = -stride, 0
		default:
			a, b = -stride, stride
			if axis == 1 {
				rows = ny - 1 - j
			}
		}
		seg := min(rows*nx-i, len(dst))
		diffRow(dst[:seg], f, coord, idx, a, b)
		dst = dst[seg:]
		idx += seg
		i = 0
		if j += rows; j == ny {
			j = 0
			k++
		}
	}
}

// gradRowsX is GradRows along x, where a cell's neighbours are the
// adjacent cells: one central-difference run over the whole window,
// across row ends, and then every face cell the window holds overwritten
// with its one-sided difference (the face cells stay scalar). The run
// leaves out mesh cells 0 and cells-1, which are faces, so its reads stay
// inside the arrays; what it stores at the other faces is replaced — dst
// does not overlap f or coord, so storing twice is safe.
func gradRowsX(dst, f, coord []float32, nx, cells, base int) {
	end := base + len(dst)
	if lo, hi := max(base, 1), min(end, cells-1); lo < hi {
		diffRow(dst[lo-base:hi-base], f, coord, lo, -1, 1)
	}
	for c := base - base%nx; c < end; c += nx { // each row start from base's row on
		if c >= base {
			dst[c-base] = quotient(f, coord, c, c+1)
		}
		if e := c + nx - 1; e >= base && e < end {
			dst[e-base] = quotient(f, coord, e-1, e)
		}
	}
}

// DimsArray packs mesh extents into the 4-float "dims" source array the
// gradient kernels read (the paper's grad3d(u, dims, x, y, z) argument).
func DimsArray(nx, ny, nz int) []float32 {
	return []float32{float32(nx), float32(ny), float32(nz), 0}
}

// Grad3DAxisFunction is the OpenCL C helper for the single-axis
// gradients grad3dx/y/z that the optimiser's decompose-forwarding pass
// creates. It calls dfg_axis_diff, so a program including it must also
// include Grad3DFunction (which defines that helper); the lane math is
// therefore identical to the corresponding component of dfg_grad3d.
const Grad3DAxisFunction = `// dfg primitive: grad3dx/y/z (single-axis mesh field gradient)
//
// One lane of dfg_grad3d: differences f along the chosen axis only,
// against that axis's cell-center coordinate array.
inline float dfg_grad3d_axis(__global const float *f,
                             __global const float *dims,
                             __global const float *coord,
                             int idx, int axis)
{
    int nx = (int)dims[0];
    int ny = (int)dims[1];
    int nz = (int)dims[2];

    int i = idx % nx;
    int rest = idx / nx;
    int j = rest % ny;
    int k = rest / ny;

    if (axis == 0) {
        return dfg_axis_diff(f, coord, idx, i, nx, 1);
    }
    if (axis == 1) {
        return dfg_axis_diff(f, coord, idx, j, ny, nx);
    }
    return dfg_axis_diff(f, coord, idx, k, nz, nx * ny);
}
`

// GradAxisAt is the executable equivalent of dfg_grad3d_axis: one
// component of the gradient at linear cell idx. It runs exactly the
// arithmetic of the matching lane of GradAt, so forwarding a decomposed
// gradient through it is bit-exact.
func GradAxisAt(field, x, y, z []float32, nx, ny, nz, idx, axis int) float32 {
	i := idx % nx
	rest := idx / nx
	j := rest % ny
	k := rest / ny
	switch axis {
	case 0:
		return gradAxisDiff(field, x, idx, i, nx, 1)
	case 1:
		return gradAxisDiff(field, y, idx, j, ny, nx)
	default:
		return gradAxisDiff(field, z, idx, k, nz, nx*ny)
	}
}

// GradAxisOf maps a single-axis gradient filter name to its axis index
// (ok = false for every other name).
func GradAxisOf(filter string) (axis int, ok bool) {
	switch filter {
	case "grad3dx":
		return 0, true
	case "grad3dy":
		return 1, true
	case "grad3dz":
		return 2, true
	default:
		return 0, false
	}
}

// diffRow is gradAxisDiff's expression over a run of cells that share
// their neighbour offsets: cell idx+e differences elements idx+e+a and
// idx+e+b. The four operand windows are sliced once, so the loop carries
// no index arithmetic and no bounds check. Like the lane primitives
// (lanes.go) it runs 8 cells per step where AVX2 is available, the
// division kept. A run of at least 8 cells ends with one more vector over
// its last 8, overlapping cells the steps already stored: dst never
// overlaps f or coord, so the overlap stores the same bits again. Shorter
// runs take this loop.
func diffRow(dst, f, coord []float32, idx, a, b int) {
	if len(dst) == 0 {
		return // an empty run; idx+a may lie outside f
	}
	fa, fb := f[idx+a:][:len(dst)], f[idx+b:][:len(dst)]
	ca, cb := coord[idx+a:][:len(dst)], coord[idx+b:][:len(dst)]
	if n := vectorLen(len(dst)); n > 0 {
		diffRowAVX2(dst, fa, fb, ca, cb)
		if n < uint(len(dst)) {
			t := len(dst) - 8
			diffRowAVX2(dst[t:], fa[t:], fb[t:], ca[t:], cb[t:])
		}
		return
	}
	for e := range dst {
		dst[e] = (fb[e] - fa[e]) / (cb[e] - ca[e])
	}
}
