package vortex

import (
	"fmt"
	"math"

	"dfg/internal/ocl"
)

// This file implements the paper's reference OpenCL kernels: hand-written
// single kernels for each of the three vortex-detection expressions. They
// have the same input and output global-memory constraints as the fusion
// strategy, but compute the desired expression directly, with fewer
// memory fetches and floating-point operations than the composed
// primitives — the "custom or one-off solution" the fusion strategy is
// shown to approach.
//
// The stencil code here is written independently of internal/kernels and
// internal/mesh (a third formulation), so agreement among all three is a
// meaningful cross-check.

// refDiff differences field f along one axis at linear index idx, where
// coord is the per-cell center coordinate array for that axis, p is the
// position along the axis, n the axis extent and stride the linear step.
func refDiff(f, coord []float32, idx, p, n, stride int) float32 {
	if n == 1 {
		return 0
	}
	lo, hi := idx, idx
	if p > 0 {
		lo = idx - stride
	}
	if p < n-1 {
		hi = idx + stride
	}
	return (f[hi] - f[lo]) / (coord[hi] - coord[lo])
}

// refVelMagSrc is the hand-written velocity-magnitude kernel source.
const refVelMagSrc = `// reference kernel: velocity magnitude (hand-written)
__kernel void kref_velmag(__global const float *u,
                          __global const float *v,
                          __global const float *w,
                          __global float *out)
{
    int gid = get_global_id(0);
    float a = u[gid], b = v[gid], c = w[gid];
    out[gid] = sqrt(a*a + b*b + c*c);
}
`

// refVortMagSrc is the hand-written vorticity-magnitude kernel source.
const refVortMagSrc = `// reference kernel: vorticity magnitude (hand-written)
// Computes only the six directional derivatives the curl needs.
inline float ref_diff(__global const float *f, __global const float *c,
                      int idx, int p, int n, int stride)
{
    int lo = (p > 0)     ? idx - stride : idx;
    int hi = (p < n - 1) ? idx + stride : idx;
    if (n == 1) return 0.0f;
    return (f[hi] - f[lo]) / (c[hi] - c[lo]);
}

__kernel void kref_vortmag(__global const float *u,
                           __global const float *v,
                           __global const float *w,
                           __global const float *dims,
                           __global const float *x,
                           __global const float *y,
                           __global const float *z,
                           __global float *out)
{
    int gid = get_global_id(0);
    int nx = (int)dims[0], ny = (int)dims[1], nz = (int)dims[2];
    int i = gid % nx, r = gid / nx, j = r % ny, k = r / ny;

    float dw_dy = ref_diff(w, y, gid, j, ny, nx);
    float dv_dz = ref_diff(v, z, gid, k, nz, nx*ny);
    float du_dz = ref_diff(u, z, gid, k, nz, nx*ny);
    float dw_dx = ref_diff(w, x, gid, i, nx, 1);
    float dv_dx = ref_diff(v, x, gid, i, nx, 1);
    float du_dy = ref_diff(u, y, gid, j, ny, nx);

    float wx = dw_dy - dv_dz;
    float wy = du_dz - dw_dx;
    float wz = dv_dx - du_dy;
    out[gid] = sqrt(wx*wx + wy*wy + wz*wz);
}
`

// refQCritSrc is the hand-written Q-criterion kernel source.
const refQCritSrc = `// reference kernel: Q-criterion (hand-written)
// Builds the full velocity gradient tensor once and evaluates
// Q = 0.5*(||Omega||^2 - ||S||^2) directly.
inline float ref_diff(__global const float *f, __global const float *c,
                      int idx, int p, int n, int stride)
{
    int lo = (p > 0)     ? idx - stride : idx;
    int hi = (p < n - 1) ? idx + stride : idx;
    if (n == 1) return 0.0f;
    return (f[hi] - f[lo]) / (c[hi] - c[lo]);
}

__kernel void kref_qcrit(__global const float *u,
                         __global const float *v,
                         __global const float *w,
                         __global const float *dims,
                         __global const float *x,
                         __global const float *y,
                         __global const float *z,
                         __global float *out)
{
    int gid = get_global_id(0);
    int nx = (int)dims[0], ny = (int)dims[1], nz = (int)dims[2];
    int i = gid % nx, r = gid / nx, j = r % ny, k = r / ny;

    float J[3][3];
    J[0][0] = ref_diff(u, x, gid, i, nx, 1);
    J[0][1] = ref_diff(u, y, gid, j, ny, nx);
    J[0][2] = ref_diff(u, z, gid, k, nz, nx*ny);
    J[1][0] = ref_diff(v, x, gid, i, nx, 1);
    J[1][1] = ref_diff(v, y, gid, j, ny, nx);
    J[1][2] = ref_diff(v, z, gid, k, nz, nx*ny);
    J[2][0] = ref_diff(w, x, gid, i, nx, 1);
    J[2][1] = ref_diff(w, y, gid, j, ny, nx);
    J[2][2] = ref_diff(w, z, gid, k, nz, nx*ny);

    float snorm = 0.0f, wnorm = 0.0f;
    for (int a = 0; a < 3; a++) {
        for (int b = 0; b < 3; b++) {
            float s  = 0.5f * (J[a][b] + J[b][a]);
            float om = 0.5f * (J[a][b] - J[b][a]);
            snorm += s * s;
            wnorm += om * om;
        }
    }
    out[gid] = 0.5f * (wnorm - snorm);
}
`

// ReferenceKernel returns the hand-written kernel for one of the
// paper's expressions ("VelMag", "VortMag" or "Q-Crit") together with
// the ordered source-array names to bind before the output buffer.
func ReferenceKernel(name string) (*ocl.Kernel, []string, error) {
	switch name {
	case "VelMag":
		return &ocl.Kernel{
			Name:    "kref_velmag",
			Source:  refVelMagSrc,
			NumBufs: 4,
			Cost:    ocl.Cost{Flops: 6, LoadBytes: 12, StoreBytes: 4},
			Passes: []ocl.KernelFunc{func(lo, hi int, bufs []ocl.View) {
				u, v, w, out := bufs[0].Data, bufs[1].Data, bufs[2].Data, bufs[3].Data
				for i := lo; i < hi; i++ {
					a, b, c := float64(u[i]), float64(v[i]), float64(w[i])
					out[i] = float32(math.Sqrt(a*a + b*b + c*c))
				}
			}},
		}, []string{"u", "v", "w"}, nil

	case "VortMag":
		return &ocl.Kernel{
			Name:    "kref_vortmag",
			Source:  refVortMagSrc,
			NumBufs: 8,
			Cost:    ocl.Cost{Flops: 30, LoadBytes: 76, StoreBytes: 4},
			Passes: []ocl.KernelFunc{func(lo, hi int, bufs []ocl.View) {
				u, v, w := bufs[0].Data, bufs[1].Data, bufs[2].Data
				dims := bufs[3].Data
				x, y, z := bufs[4].Data, bufs[5].Data, bufs[6].Data
				out := bufs[7].Data
				nx, ny, nz := int(dims[0]), int(dims[1]), int(dims[2])
				for gid := lo; gid < hi; gid++ {
					i := gid % nx
					r := gid / nx
					j := r % ny
					k := r / ny
					wx := refDiff(w, y, gid, j, ny, nx) - refDiff(v, z, gid, k, nz, nx*ny)
					wy := refDiff(u, z, gid, k, nz, nx*ny) - refDiff(w, x, gid, i, nx, 1)
					wz := refDiff(v, x, gid, i, nx, 1) - refDiff(u, y, gid, j, ny, nx)
					out[gid] = float32(math.Sqrt(float64(wx)*float64(wx) +
						float64(wy)*float64(wy) + float64(wz)*float64(wz)))
				}
			}},
		}, []string{"u", "v", "w", "dims", "x", "y", "z"}, nil

	case "Q-Crit":
		return &ocl.Kernel{
			Name:    "kref_qcrit",
			Source:  refQCritSrc,
			NumBufs: 8,
			Cost:    ocl.Cost{Flops: 70, LoadBytes: 100, StoreBytes: 4},
			Passes: []ocl.KernelFunc{func(lo, hi int, bufs []ocl.View) {
				u, v, w := bufs[0].Data, bufs[1].Data, bufs[2].Data
				dims := bufs[3].Data
				x, y, z := bufs[4].Data, bufs[5].Data, bufs[6].Data
				out := bufs[7].Data
				nx, ny, nz := int(dims[0]), int(dims[1]), int(dims[2])
				for gid := lo; gid < hi; gid++ {
					i := gid % nx
					r := gid / nx
					j := r % ny
					k := r / ny
					var J [3][3]float32
					J[0][0] = refDiff(u, x, gid, i, nx, 1)
					J[0][1] = refDiff(u, y, gid, j, ny, nx)
					J[0][2] = refDiff(u, z, gid, k, nz, nx*ny)
					J[1][0] = refDiff(v, x, gid, i, nx, 1)
					J[1][1] = refDiff(v, y, gid, j, ny, nx)
					J[1][2] = refDiff(v, z, gid, k, nz, nx*ny)
					J[2][0] = refDiff(w, x, gid, i, nx, 1)
					J[2][1] = refDiff(w, y, gid, j, ny, nx)
					J[2][2] = refDiff(w, z, gid, k, nz, nx*ny)
					var snorm, wnorm float64
					for a := 0; a < 3; a++ {
						for b := 0; b < 3; b++ {
							s := 0.5 * float64(J[a][b]+J[b][a])
							om := 0.5 * float64(J[a][b]-J[b][a])
							snorm += s * s
							wnorm += om * om
						}
					}
					out[gid] = float32(0.5 * (wnorm - snorm))
				}
			}},
		}, []string{"u", "v", "w", "dims", "x", "y", "z"}, nil

	default:
		return nil, nil, fmt.Errorf("vortex: no reference kernel for %q (want VelMag, VortMag or Q-Crit)", name)
	}
}
