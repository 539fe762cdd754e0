package vm

import (
	"fmt"
	"math"

	"dfg/internal/kernels"
	"dfg/internal/ocl"
)

// blockSize is the number of elements one register block holds (the
// vector-register design NumExpr pioneered for expression fusion):
// dispatch overhead amortizes over the block while the live lanes stay
// cache-resident. A slot is 4 lanes x 256 float32 = 4 KiB, but scalars
// use lane 0 only, so Paper-level Q-criterion's 16 slots keep about
// 16 x 1 KiB hot — L1-sized; the whole 64 KiB slab is L2-resident. With
// scalar lane loops a sweep of 128..2048 with BenchmarkHandlers moved
// whole Q-criterion at 64^3 by a few percent, inside run-to-run noise.
// With the 8-wide lane bodies (kernels/lanes.go) a 256-element add is
// about 27 ns, so per-block dispatch shows: 512 read 11.8 against 14.0
// ns/element on BenchmarkHandlers/qcrit. Re-sizing the block is its own
// change (ROADMAP item 2), not made here. Block boundaries cannot affect
// results — every instruction is element-independent within a pass, and
// the only cross-element operation (the gradient stencil) reads source
// or already-materialized arrays, never the block registers.
const blockSize = 256

// SourceFn resolves a bound source array by name. The returned slice is
// read in place — the executor performs no copies of source data.
type SourceFn func(name string) ([]float32, error)

// Run executes the program over n elements, resolving sources through
// src, and returns a freshly allocated output array of n*OutWidth
// float32s (the primary root of a multi-root program). canceled, when
// non-nil, is checked between passes (the analogue of the device
// strategies' between-launch cancellation points). Register and scratch
// storage is drawn from the package scratch pool and returned before Run
// exits, so warm evaluations allocate nothing beyond the output
// array(s).
func (p *Program) Run(n int, src SourceFn, canceled func() error) ([]float32, error) {
	outs, err := p.RunAll(n, src, canceled)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunAll is Run returning every root's output array, in the compiled
// network's Roots() order — one entry for ordinary programs, one per
// member for merged super-networks. All roots are produced by the same
// single sweep over the mesh: shared subtrees execute once.
func (p *Program) RunAll(n int, src SourceFn, canceled func() error) ([][]float32, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vm: global work size must be positive, got %d", n)
	}
	views := make([]ocl.View, len(p.buffers))
	outs := make([][]float32, 0, len(p.OutWidths))
	for i, spec := range p.buffers {
		var data []float32
		switch spec.Kind {
		case BufSource:
			var err error
			if data, err = src(spec.Name); err != nil {
				return nil, err
			}
			if need := spec.Need(n); len(data) < need {
				return nil, fmt.Errorf("vm: source %q holds %d float32s, need %d", spec.Name, len(data), need)
			}
		case BufScratch:
			data = GetScratch(n * spec.Width)
			defer PutScratch(data)
		case BufOut:
			data = make([]float32, n*spec.Width)
			outs = append(outs, data)
		}
		views[i] = ocl.View{Data: data, Elems: n, Width: spec.Width}
	}
	for pi := range p.passes {
		if pi > 0 && canceled != nil {
			if err := canceled(); err != nil {
				return nil, err
			}
		}
		p.RunPass(pi, 0, n, views)
	}
	return outs, nil
}

// RunPass executes one pass over elements [lo, hi) in register-sized
// blocks, with views bound in buffer-table order. It is safe to call
// concurrently on disjoint ranges (each call draws its own register slab
// from the scratch pool), which is how the fused kernel's launch chunks
// run; the caller provides the barrier between passes.
func (p *Program) RunPass(pass, lo, hi int, views []ocl.View) {
	regs := GetScratch(p.slots * 4 * blockSize)
	defer PutScratch(regs)
	code := p.passes[pass]
	for base := lo; base < hi; base += blockSize {
		n := hi - base
		if n > blockSize {
			n = blockSize
		}
		for i := range code {
			in := &code[i]
			handlers[in.op](in, regs, views, base, n)
		}
	}
}

// lane returns the first n elements of one lane of a register slot.
func lane(regs []float32, s uint16, l, n int) []float32 {
	off := (int(s)*4 + l) * blockSize
	return regs[off : off+n]
}

// handler executes one instruction over elements [base, base+n) of the
// current block.
type handler func(in *Instr, regs []float32, views []ocl.View, base, n int)

// handlers is the opcode-indexed dispatch table. The structural opcodes'
// handlers are written below; an elementwise opcode's handler is its
// primitive's lane body (kernels.Primitives) over the operand slots.
var handlers [numOpcodes]handler

// unOp, binOp and triOp build the handler of a slot-to-slot lane body
// with one, two or three operands.
func unOp(f func(dst, a []float32)) handler {
	return func(in *Instr, regs []float32, _ []ocl.View, _, n int) {
		f(lane(regs, in.Dst, 0, n), lane(regs, in.A, 0, n))
	}
}

func binOp(f func(dst, a, b []float32)) handler {
	return func(in *Instr, regs []float32, _ []ocl.View, _, n int) {
		f(lane(regs, in.Dst, 0, n), lane(regs, in.A, 0, n), lane(regs, in.B, 0, n))
	}
}

func triOp(f func(dst, a, b, c []float32)) handler {
	return func(in *Instr, regs []float32, _ []ocl.View, _, n int) {
		f(lane(regs, in.Dst, 0, n), lane(regs, in.A, 0, n), lane(regs, in.B, 0, n), lane(regs, in.C, 0, n))
	}
}

// gradBufs resolves a stencil instruction's buffers: the field, the
// three coordinate arrays and the mesh extents.
func gradBufs(in *Instr, views []ocl.View) (field []float32, coords [3][]float32, nx, ny, nz int) {
	dims := views[in.GBufs[1]].Data
	for a := range coords {
		coords[a] = views[in.GBufs[2+a]].Data
	}
	return views[in.GBufs[0]].Data, coords, int(dims[0]), int(dims[1]), int(dims[2])
}

func init() {
	setOp(opLoad, "load", 0)
	setOp(opConst, "const", 0)
	setOp(opNorm, "norm", 1)
	setOp(opDecomp, "decompose", 1)
	setOp(opGrad, "grad3d", 0)
	setOp(opGradAxis, "grad3d?", 0)
	setOp(opStore, "store", 1)
	handlers[opLoad] = func(in *Instr, regs []float32, views []ocl.View, base, n int) {
		w := int(in.Width)
		if w == 1 {
			copy(lane(regs, in.Dst, 0, n), views[in.Buf].Data[base:base+n])
			return
		}
		data := views[in.Buf].Data[base*w : (base+n)*w]
		for c := 0; c < w; c++ {
			dst := lane(regs, in.Dst, c, n)
			for e := range dst {
				dst[e] = data[e*w+c]
			}
		}
	}
	handlers[opConst] = func(in *Instr, regs []float32, _ []ocl.View, _, n int) {
		dst := lane(regs, in.Dst, 0, n)
		for e := range dst {
			dst[e] = in.Val
		}
	}
	handlers[opNorm] = func(in *Instr, regs []float32, _ []ocl.View, _, n int) {
		dst := lane(regs, in.Dst, 0, n)
		x, y, z := lane(regs, in.A, 0, n), lane(regs, in.A, 1, n), lane(regs, in.A, 2, n)
		for e := range dst {
			dst[e] = float32(math.Sqrt(float64(x[e])*float64(x[e]) +
				float64(y[e])*float64(y[e]) + float64(z[e])*float64(z[e])))
		}
	}
	handlers[opDecomp] = func(in *Instr, regs []float32, _ []ocl.View, _, n int) {
		copy(lane(regs, in.Dst, 0, n), lane(regs, in.A, int(in.Comp), n))
	}
	handlers[opGrad] = func(in *Instr, regs []float32, views []ocl.View, base, n int) {
		field, coords, nx, ny, nz := gradBufs(in, views)
		for axis, coord := range coords {
			kernels.GradRows(lane(regs, in.Dst, axis, n), field, coord, axis, nx, ny, nz, base)
		}
		pad := lane(regs, in.Dst, 3, n)
		for e := range pad {
			pad[e] = 0
		}
	}
	handlers[opGradAxis] = func(in *Instr, regs []float32, views []ocl.View, base, n int) {
		field, coords, nx, ny, nz := gradBufs(in, views)
		axis := int(in.Comp)
		kernels.GradRows(lane(regs, in.Dst, 0, n), field, coords[axis], axis, nx, ny, nz, base)
	}
	handlers[opStore] = func(in *Instr, regs []float32, views []ocl.View, base, n int) {
		w := int(in.Width)
		if w == 1 {
			copy(views[in.Buf].Data[base:base+n], lane(regs, in.A, 0, n))
			return
		}
		data := views[in.Buf].Data[base*w : (base+n)*w]
		for c := 0; c < w; c++ {
			for e, v := range lane(regs, in.A, c, n) {
				data[e*w+c] = v
			}
		}
	}
	for i, p := range kernels.Primitives() {
		op := opElementwise + opcode(i)
		setOp(op, p.Name, p.Arity)
		switch p.Arity {
		case 1:
			handlers[op] = unOp(p.Unary)
		case 2:
			handlers[op] = binOp(p.Binary)
		default:
			handlers[op] = triOp(p.Ternary)
		}
	}
}
