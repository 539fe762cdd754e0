package vm

import (
	"math"

	"dfg/internal/kernels"
	"dfg/internal/ocl"
)

// Reference evaluates the lowering over n elements one element at a
// time, every instruction per element over the unallocated virtual
// registers — the straightforward interpreter. It exists as the oracle
// the differential tests hold the blocked executor (and its slot
// allocator) to at zero ULP; nothing selects it for execution. views
// are bound in buffer-table order.
func (l *Lowering) Reference(n int, views []ocl.View) {
	regs := make([]float32, l.NumVRegs*4)
	b2f := func(b bool) float32 {
		if b {
			return 1
		}
		return 0
	}
	for _, pass := range l.Passes {
		for gid := 0; gid < n; gid++ {
			for i := range pass {
				in := &pass[i]
				dst, a, b, c := int(in.Dst)*4, int(in.A)*4, int(in.B)*4, int(in.C)*4
				w := int(in.Width)
				switch in.op {
				case opLoad:
					copy(regs[dst:dst+w], views[in.Buf].Data[gid*w:gid*w+w])
				case opConst:
					regs[dst] = in.Val
				case opAdd:
					regs[dst] = regs[a] + regs[b]
				case opSub:
					regs[dst] = regs[a] - regs[b]
				case opMul:
					regs[dst] = regs[a] * regs[b]
				case opDiv:
					regs[dst] = regs[a] / regs[b]
				case opMin:
					regs[dst] = regs[a]
					if regs[b] < regs[a] {
						regs[dst] = regs[b]
					}
				case opMax:
					regs[dst] = regs[a]
					if regs[b] > regs[a] {
						regs[dst] = regs[b]
					}
				case opSqrt:
					regs[dst] = float32(math.Sqrt(float64(regs[a])))
				case opNeg:
					regs[dst] = -regs[a]
				case opAbs:
					regs[dst] = regs[a]
					if regs[a] < 0 {
						regs[dst] = -regs[a]
					}
				case opExp:
					regs[dst] = float32(math.Exp(float64(regs[a])))
				case opLog:
					regs[dst] = float32(math.Log(float64(regs[a])))
				case opSin:
					regs[dst] = float32(math.Sin(float64(regs[a])))
				case opCos:
					regs[dst] = float32(math.Cos(float64(regs[a])))
				case opPow:
					regs[dst] = float32(math.Pow(float64(regs[a]), float64(regs[b])))
				case opGt:
					regs[dst] = b2f(regs[a] > regs[b])
				case opLt:
					regs[dst] = b2f(regs[a] < regs[b])
				case opGe:
					regs[dst] = b2f(regs[a] >= regs[b])
				case opLe:
					regs[dst] = b2f(regs[a] <= regs[b])
				case opEq:
					regs[dst] = b2f(regs[a] == regs[b])
				case opNe:
					regs[dst] = b2f(regs[a] != regs[b])
				case opSelect:
					if regs[a] != 0 {
						regs[dst] = regs[b]
					} else {
						regs[dst] = regs[c]
					}
				case opNorm:
					x, y, z := float64(regs[a]), float64(regs[a+1]), float64(regs[a+2])
					regs[dst] = float32(math.Sqrt(x*x + y*y + z*z))
				case opDecomp:
					regs[dst] = regs[a+int(in.Comp)]
				case opGrad, opGradAxis:
					field, dims := views[in.GBufs[0]].Data, views[in.GBufs[1]].Data
					x, y, z := views[in.GBufs[2]].Data, views[in.GBufs[3]].Data, views[in.GBufs[4]].Data
					nx, ny, nz := int(dims[0]), int(dims[1]), int(dims[2])
					if in.op == opGradAxis {
						regs[dst] = kernels.GradAxisAt(field, x, y, z, nx, ny, nz, gid, int(in.Comp))
					} else {
						regs[dst], regs[dst+1], regs[dst+2] = kernels.GradAt(field, x, y, z, nx, ny, nz, gid)
						regs[dst+3] = 0
					}
				case opStore:
					copy(views[in.Buf].Data[gid*w:gid*w+w], regs[a:a+w])
				}
			}
		}
	}
}
