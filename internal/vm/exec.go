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
// cache-resident. A lane is 512 float32 = 2 KiB; Paper-level
// Q-criterion's view uses 17 lanes, 34 KiB, inside a 48 KiB L1. With the
// fused rows the program is 20 steps per block, so per-step dispatch is
// what a larger block saves: over ten alternated BenchmarkHandlers/qcrit
// runs (one goroutine, 2-vCPU 2.1 GHz Xeon with AVX2) 512 read a median
// 5.07 against 5.95 ns/element for 256 and won 10 of 10 (O2 Q-criterion
// 9 of 10), and the benchmark's small_hot workload (8^3, one block
// instead of two) read a median eval_p05_us of 7.06 against 7.23 µs.
// Block boundaries cannot affect results — every instruction is
// element-independent within a pass, and the only cross-element
// operation (the gradient stencil) reads source or already-materialized
// arrays, never the block registers.
const blockSize = 512

// SourceFn resolves a bound source array by name. The returned slice is
// read in place — the executor performs no copies of source data.
type SourceFn func(name string) ([]float32, error)

// Run executes the program over n elements, resolving sources through
// src, and returns a freshly allocated output array of n*OutWidth
// float32s (the primary root of a multi-root program). canceled, when
// non-nil, is checked between passes (the analogue of the device
// strategies' between-launch cancellation points). Register and scratch
// storage is drawn from the package scratch pool and returned before Run
// exits.
func (p *Program) Run(n int, src SourceFn, canceled func() error) ([]float32, error) {
	outs, err := p.RunAll(make([]ocl.View, len(p.buffers)), n, src, canceled)
	if err != nil {
		return nil, err
	}
	return outs[0].Data, nil
}

// RunAll is Run binding the buffer table into views — the caller's
// scratch, at least NumBuffers long, so a caller that evaluates
// repeatedly binds without allocating — and returning every root's
// output, in the compiled network's Roots() order: one entry for
// ordinary programs, one per member for merged super-networks. The
// outputs are views' trailing entries, valid until views is reused; their
// Data arrays are freshly allocated and the caller's to keep, and they
// are all a warm run allocates. All roots are produced by the same single
// sweep over the mesh: shared subtrees execute once.
func (p *Program) RunAll(views []ocl.View, n int, src SourceFn, canceled func() error) ([]ocl.View, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vm: global work size must be positive, got %d", n)
	}
	views = views[:len(p.buffers)]
	for i, spec := range p.buffers {
		var data []float32
		switch spec.Kind {
		case BufSource:
			var err error
			if data, err = src(spec.Name); err != nil {
				return nil, err
			}
			if need := spec.Need.Of(n); len(data) < need {
				return nil, fmt.Errorf("vm: source %q holds %d float32s, need %d", spec.Name, len(data), need)
			}
		case BufScratch:
			data = GetScratch(n * spec.Width)
			defer PutScratch(data)
		case BufOut:
			data = make([]float32, n*spec.Width)
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
	return views[len(views)-len(p.OutWidths):], nil
}

// RunPass executes one pass over elements [lo, hi) in register-sized
// blocks, with views bound in buffer-table order. It is safe to call
// concurrently on disjoint ranges (each call draws its own register slab
// from the scratch pool), which is how the fused kernel's launch chunks
// run; the caller provides the barrier between passes. A pass of one
// primitive step over buffer windows alone runs the range in one call.
func (p *Program) RunPass(pass, lo, hi int, views []ocl.View) {
	code := &p.passes[pass]
	if code.whole {
		s := &code.steps[0]
		handlers[s.op](s, nil, views, lo, hi-lo)
		return
	}
	regs := GetScratch(p.slabLen)
	defer PutScratch(regs)
	for _, c := range code.consts {
		fill := lane(regs, c.lane, max(0, min(blockSize, hi-lo)))
		for e := range fill {
			fill[e] = c.val
		}
	}
	for base := lo; base < hi; base += blockSize {
		n := min(blockSize, hi-base)
		for i := range code.steps {
			s := &code.steps[i]
			handlers[s.op](s, regs, views, base, n)
		}
	}
}

// lane returns the first n elements of lane l of the register slab.
func lane(regs []float32, l uint32, n int) []float32 {
	off := int(l) * blockSize
	return regs[off : off+n]
}

// block returns what the operand addresses in the block of n elements
// at base.
func (o operand) block(regs []float32, views []ocl.View, base, n int) []float32 {
	if o.buf {
		return views[o.idx].Data[base : base+n]
	}
	return lane(regs, o.idx, n)
}

// handler executes one step over elements [base, base+n) of the current
// block.
type handler func(s *step, regs []float32, views []ocl.View, base, n int)

// handlers is the opcode-indexed dispatch table. The structural opcodes'
// handlers are written below; an elementwise opcode's handler is its
// primitive's lane body (kernels.Primitives) and a fused opcode's its
// row's Apply (kernels.FusedRows), over the operands' blocks.
var handlers [numOpcodes]handler

// opFused + i is row i of kernels.FusedRows(). Fused opcodes exist only
// in a Program, never in a Lowering.
const opFused opcode = 1 << 7

// maxFusedSteps bounds a fused row's steps (the peephole's match state).
const maxFusedSteps = 4

// fusedOps holds, per fused row, each step's elementwise opcode.
var fusedOps [][]opcode

// unOp, binOp and triOp build the handler of a lane body with one, two or
// three operands.
func unOp(f func(dst, a []float32)) handler {
	return func(s *step, regs []float32, views []ocl.View, base, n int) {
		f(s.dst.block(regs, views, base, n), s.args[0].block(regs, views, base, n))
	}
}

func binOp(f func(dst, a, b []float32)) handler {
	return func(s *step, regs []float32, views []ocl.View, base, n int) {
		f(s.dst.block(regs, views, base, n), s.args[0].block(regs, views, base, n), s.args[1].block(regs, views, base, n))
	}
}

func triOp(f func(dst, a, b, c []float32)) handler {
	return func(s *step, regs []float32, views []ocl.View, base, n int) {
		f(s.dst.block(regs, views, base, n), s.args[0].block(regs, views, base, n),
			s.args[1].block(regs, views, base, n), s.args[2].block(regs, views, base, n))
	}
}

// fusedOp builds a fused row's handler; lane tmpLane is its temporary.
func fusedOp(r *kernels.Fused) handler {
	return func(s *step, regs []float32, views []ocl.View, base, n int) {
		var in [4][]float32
		for k := range in[:r.Inputs] {
			in[k] = s.args[k].block(regs, views, base, n)
		}
		r.Apply(s.dst.block(regs, views, base, n), lane(regs, tmpLane, n), &in)
	}
}

// gradBufs resolves a stencil step's buffers: the field, the three
// coordinate arrays and the mesh extents.
func gradBufs(s *step, views []ocl.View) (field []float32, coords [3][]float32, nx, ny, nz int) {
	dims := views[s.gbufs[1]].Data
	for a := range coords {
		coords[a] = views[s.gbufs[2+a]].Data
	}
	return views[s.gbufs[0]].Data, coords, int(dims[0]), int(dims[1]), int(dims[2])
}

func init() {
	// Loads of width 1, constants and decomposes are operands of the view
	// (view.go), never steps: they have names and read counts, no handler.
	setOp(opLoad, "load", 0)
	setOp(opConst, "const", 0)
	setOp(opNorm, "norm", 1)
	setOp(opDecomp, "decompose", 1)
	setOp(opGrad, "grad3d", 0)
	setOp(opGradAxis, "grad3d?", 0)
	setOp(opStore, "store", 1)
	handlers[opLoad] = func(s *step, regs []float32, views []ocl.View, base, n int) {
		w := int(s.width)
		data := views[s.args[0].idx].Data[base*w : (base+n)*w]
		for c := 0; c < w; c++ {
			if s.comp>>c&1 == 0 {
				continue // no step reads the component
			}
			dst := lane(regs, s.dst.idx+uint32(c), n)
			for e := range dst {
				dst[e] = data[e*w+c]
			}
		}
	}
	handlers[opNorm] = func(s *step, regs []float32, views []ocl.View, base, n int) {
		dst := s.dst.block(regs, views, base, n)
		v := s.args[0].idx
		x, y, z := lane(regs, v, n), lane(regs, v+1, n), lane(regs, v+2, n)
		for e := range dst {
			// kernels.Norm's arithmetic: float squares (each rounded by
			// its conversion, so no FMA contracts it), a left-to-right
			// float sum and a correctly rounded sqrtf.
			s := float32(x[e]*x[e]) + float32(y[e]*y[e]) + float32(z[e]*z[e])
			dst[e] = float32(math.Sqrt(float64(s)))
		}
	}
	handlers[opGrad] = func(s *step, regs []float32, views []ocl.View, base, n int) {
		field, coords, nx, ny, nz := gradBufs(s, views)
		for axis, coord := range coords {
			kernels.GradRows(lane(regs, s.dst.idx+uint32(axis), n), field, coord, axis, nx, ny, nz, base)
		}
		clear(lane(regs, s.dst.idx+3, n))
	}
	handlers[opGradAxis] = func(s *step, regs []float32, views []ocl.View, base, n int) {
		field, coords, nx, ny, nz := gradBufs(s, views)
		axis := int(s.comp)
		kernels.GradRows(s.dst.block(regs, views, base, n), field, coords[axis], axis, nx, ny, nz, base)
	}
	handlers[opStore] = func(s *step, regs []float32, views []ocl.View, base, n int) {
		w := int(s.width)
		if w == 1 {
			copy(s.dst.block(regs, views, base, n), s.args[0].block(regs, views, base, n))
			return
		}
		data := views[s.dst.idx].Data[base*w : (base+n)*w]
		for c := 0; c < w; c++ {
			for e, v := range lane(regs, s.args[0].idx+uint32(c), n) {
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
	if int(opElementwise)+len(kernels.Primitives()) > int(opFused) {
		panic("vm: elementwise opcodes overlap the fused ones")
	}
	rows := kernels.FusedRows()
	fusedOps = make([][]opcode, len(rows))
	for i := range rows {
		r := &rows[i]
		if len(r.Steps) > maxFusedSteps || int(opFused)+i >= numOpcodes {
			panic("vm: fused row " + r.Name + " does not fit the executor")
		}
		op := opFused + opcode(i)
		ops[op].name, ops[op].reads = r.Name, uint8(r.Inputs) // no opOf entry: the lowering never emits it
		handlers[op] = fusedOp(r)
		for _, st := range r.Steps {
			fusedOps[i] = append(fusedOps[i], opOf[st.Prim])
		}
	}
}
