// Package vmtest holds the oracle the differential tests hold
// internal/vm's blocked executor to. Only tests import it.
package vmtest

import (
	"math"

	"dfg/internal/kernels"
	"dfg/internal/ocl"
	"dfg/internal/vm"
)

// Reference evaluates the lowering over n elements one element at a
// time, every instruction per element over the unallocated virtual
// registers — the straightforward interpreter, held to the blocked
// executor (and its lane allocator) at zero ULP. views are bound in
// buffer-table order.
//
// Every primitive is spelled here by hand, from the OpenCL C text the
// primitive renders to, and shares nothing with the kernels table the
// executor runs — that independence is what makes it an oracle. Only
// the gradient goes through kernels' per-element GradAt.
func Reference(l *vm.Lowering, n int, views []ocl.View) {
	regs := make([]float32, l.NumVRegs*4)
	b2f := func(b bool) float32 {
		if b {
			return 1
		}
		return 0
	}
	for _, pass := range l.Passes {
		filters := make([]string, len(pass)) // resolved once, not per element
		for i := range pass {
			filters[i] = pass[i].Filter()
		}
		for gid := 0; gid < n; gid++ {
			for i := range pass {
				in := &pass[i]
				dst, a, b, c := int(in.Dst)*4, int(in.A)*4, int(in.B)*4, int(in.C)*4
				w := int(in.Width)
				switch f := filters[i]; f {
				case "load":
					copy(regs[dst:dst+w], views[in.Buf].Data[gid*w:gid*w+w])
				case "const":
					regs[dst] = in.Val
				case "add":
					regs[dst] = regs[a] + regs[b]
				case "sub":
					regs[dst] = regs[a] - regs[b]
				case "mul":
					regs[dst] = regs[a] * regs[b]
				case "div":
					regs[dst] = regs[a] / regs[b]
				case "min": // fmin: a NaN operand yields the other; else a unless b < a
					regs[dst] = regs[a]
					if x, y := regs[a], regs[b]; x != x || y < x {
						regs[dst] = y
					}
				case "max": // fmax: a NaN operand yields the other; else a unless b > a
					regs[dst] = regs[a]
					if x, y := regs[a], regs[b]; x != x || y > x {
						regs[dst] = y
					}
				case "sqrt":
					regs[dst] = float32(math.Sqrt(float64(regs[a])))
				case "neg":
					regs[dst] = -regs[a]
				case "abs": // fabs: the sign bit cleared, of zeros and NaNs too
					regs[dst] = math.Float32frombits(math.Float32bits(regs[a]) & 0x7fffffff)
				case "exp":
					regs[dst] = float32(math.Exp(float64(regs[a])))
				case "log":
					regs[dst] = float32(math.Log(float64(regs[a])))
				case "sin":
					regs[dst] = float32(math.Sin(float64(regs[a])))
				case "cos":
					regs[dst] = float32(math.Cos(float64(regs[a])))
				case "pow":
					regs[dst] = float32(math.Pow(float64(regs[a]), float64(regs[b])))
				case "gt":
					regs[dst] = b2f(regs[a] > regs[b])
				case "lt":
					regs[dst] = b2f(regs[a] < regs[b])
				case "ge":
					regs[dst] = b2f(regs[a] >= regs[b])
				case "le":
					regs[dst] = b2f(regs[a] <= regs[b])
				case "eq":
					regs[dst] = b2f(regs[a] == regs[b])
				case "ne":
					regs[dst] = b2f(regs[a] != regs[b])
				case "select":
					if regs[a] != 0 {
						regs[dst] = regs[b]
					} else {
						regs[dst] = regs[c]
					}
				case "norm":
					// The rendered text: float squares, a left-to-right float
					// sum, sqrtf. Each conversion rounds, so no FMA contracts.
					x, y, z := regs[a], regs[a+1], regs[a+2]
					regs[dst] = float32(math.Sqrt(float64(float32(x*x) + float32(y*y) + float32(z*z))))
				case "decompose":
					regs[dst] = regs[a+int(in.Comp)]
				case "grad3d", "grad3dx", "grad3dy", "grad3dz":
					field, dims := views[in.GBufs[0]].Data, views[in.GBufs[1]].Data
					x, y, z := views[in.GBufs[2]].Data, views[in.GBufs[3]].Data, views[in.GBufs[4]].Data
					nx, ny, nz := int(dims[0]), int(dims[1]), int(dims[2])
					if f == "grad3d" {
						regs[dst], regs[dst+1], regs[dst+2] = kernels.GradAt(field, x, y, z, nx, ny, nz, gid)
						regs[dst+3] = 0
					} else {
						regs[dst] = kernels.GradAxisAt(field, x, y, z, nx, ny, nz, gid, int(in.Comp))
					}
				case "store":
					copy(views[in.Buf].Data[gid*w:gid*w+w], regs[a:a+w])
				default:
					panic("vmtest: no oracle case for " + f)
				}
			}
		}
	}
}
