package vm

import (
	"slices"

	"dfg/internal/kernels"
)

// Program is the executor's view of a Lowering, built by
// Lowering.Program. Programs are immutable and safe to share across
// goroutines; all per-run state lives inside the run.
type Program struct {
	// OutWidth is the primary output's element width (roots[0]).
	OutWidth int
	// OutWidths holds every root's element width, in Roots() order.
	OutWidths []int

	buffers []BufferSpec
	passes  []passCode
	slabLen int // float32s of register slab one RunPass draws
}

// passCode is one pass of the view: the steps RunPass runs per block and
// the constant lanes it fills once per range.
type passCode struct {
	steps  []step
	consts []constLane
	// whole: the pass is one primitive step over buffer windows alone —
	// a node kernel's, typically — so RunPass runs it over its whole
	// range in one call, with no register slab.
	whole bool
}

// constLane is a constant's lane of the register slab and its value.
type constLane struct {
	lane uint32
	val  float32
}

// The register slab of a pass is lanes of blockSize float32s: lane 0 is
// the fused rows' temporary, the pass's constants follow, and the
// registers take the rest.
const tmpLane = 0

// operand addresses what a step reads or writes in the current block:
// lane idx of the register slab (a vector's component c is lane idx+c),
// or, with buf set, the block's window of buffer idx.
type operand struct {
	idx uint32
	buf bool
}

// step is one executor instruction: an opcode of the lowering, or
// opFused+i for row i of kernels.FusedRows(), over resolved operands.
type step struct {
	op    opcode
	width uint8 // load/store element width
	comp  uint8 // gradient axis; a load's components some step reads (bit c)
	dst   operand
	// args are the register operands in primitive or fused-row order; a
	// load's buffer is args[0].
	args  [4]operand
	gbufs [5]uint16 // stencils: field, dims, x, y, z buffer indices
}

// Program builds the executor's view of the lowering. It differs from
// the lowering in three ways, each decided here once per plan; the
// lowering itself, and so the rendered source, the cost and the
// reference interpreter's input, do not change.
//
//   - Operands are not copies. A width-1 load is an operand that reads
//     the buffer's window in place (sources and earlier-pass scratch are
//     read-only within a pass), a decompose is an operand naming one lane
//     of the vector, and a width-1 store of a value nothing else reads
//     becomes its producer writing the buffer's window. None of the three
//     is a step.
//   - A constant is filled once per RunPass range, into a lane the
//     remapper never reuses, not once per block.
//   - A chain of the shape of a kernels.FusedRows() row whose
//     intermediates each have one reader runs as that row (match).
//
// The remaining registers are then mapped onto slab lanes with last-use
// liveness: a scalar takes one lane, a vector four consecutive ones, kept
// until the last read of any of them. A primitive's destination may reuse
// a lane its own operands free, since every lane body reads an element
// before writing it; a fused row's destination overlaps none of its
// inputs, since its composed body keeps intermediates there. Cross-pass
// values never appear here: they travel through scratch buffers.
func (l *Lowering) Program() *Program {
	prog := &Program{
		OutWidth:  l.OutWidths[0],
		OutWidths: l.OutWidths,
		buffers:   l.Buffers,
		passes:    make([]passCode, len(l.Passes)),
	}
	b := &viewBuilder{vals: make([]value, l.NumVRegs)}
	for p, pass := range l.Passes {
		if lanes := b.build(pass, &prog.passes[p]); lanes*blockSize > prog.slabLen {
			prog.slabLen = lanes * blockSize
		}
	}
	return prog
}

// NumPasses returns the pass count.
func (p *Program) NumPasses() int { return len(p.passes) }

// NumInstrs returns the steps RunPass runs per block, summed over passes.
func (p *Program) NumInstrs() int {
	total := 0
	for _, pass := range p.passes {
		total += len(pass.steps)
	}
	return total
}

// SlabLen returns how many float32s of register slab each RunPass draws
// from the scratch pool.
func (p *Program) SlabLen() int { return p.slabLen }

// Buffers returns the program's buffer table (a copy).
func (p *Program) Buffers() []BufferSpec { return append([]BufferSpec(nil), p.buffers...) }

// NumBuffers is the length of the buffer table: how many views RunAll
// binds.
func (p *Program) NumBuffers() int { return len(p.buffers) }

// valueKind is how the view holds a virtual register.
type valueKind uint8

const (
	vStep   valueKind = iota // computed by a step, into lanes or a buffer window
	vWindow                  // a width-1 load, read in place
	vConst                   // a constant's lane
	vPart                    // a decompose: one lane of a vector
)

// value is the view's record of one virtual register in the pass being
// built.
type value struct {
	kind valueKind
	comp uint8 // vPart: the component
	// src is the buffer (vWindow; vStep with sunk set) or the vector's
	// register (vPart).
	src     uint16
	sunk    bool   // vStep: the producer writes buffer src's window
	vec     bool   // vStep: a vector, on four lanes
	comps   uint8  // vStep vector: the components some step reads (bit c)
	def     int32  // vStep: the defining instruction
	readers int32  // instructions of the pass that read the register
	last    int32  // vStep: the step that reads its lanes last, -1 once freed
	lane    uint32 // vStep, vConst: the (first) lane
}

// fate is what the view makes of one instruction of the pass.
type fate struct {
	gone   bool      // an operand, a sunk store or inside a fused row
	row    int8      // the fused row rooted here, or -1
	inputs [4]uint16 // the fused row's input registers
}

// viewBuilder holds Program's state; every slice is reused across passes.
type viewBuilder struct {
	vals  []value
	fates []fate
	reads []uint16
	free  [2][]uint32 // free lanes of scalars, free first lanes of vectors
}

// build makes one pass's view into out and returns the lanes its slab
// needs.
func (b *viewBuilder) build(pass []Instr, out *passCode) int {
	if cap(b.fates) < len(pass) {
		b.fates = make([]fate, len(pass))
	}
	fates := b.fates[:len(pass)]

	// Classify every register the pass defines and count its readers.
	steps := 0
	for i := range pass {
		in := &pass[i]
		fates[i] = fate{row: -1}
		b.reads = in.Reads(b.reads[:0])
		for k, r := range b.reads {
			if !slices.Contains(b.reads[:k], r) {
				b.vals[r].readers++
			}
		}
		v := value{kind: vStep, def: int32(i), last: -1, vec: in.op == opGrad || in.op == opLoad}
		switch {
		case in.op == opStore:
			steps++
			continue
		case in.op == opLoad && in.Width == 1:
			v = value{kind: vWindow, src: in.Buf}
		case in.op == opConst:
			v = value{kind: vConst, lane: uint32(1 + len(out.consts))}
			out.consts = append(out.consts, constLane{v.lane, in.Val})
		case in.op == opDecomp:
			v = value{kind: vPart, src: in.A, comp: in.Comp}
		default:
			steps++
		}
		fates[i].gone = v.kind != vStep
		b.vals[in.Dst] = v
	}

	// Sink each width-1 store of a computed value nothing else reads.
	for i := range pass {
		in := &pass[i]
		if in.op != opStore || in.Width != 1 {
			continue
		}
		if v := &b.vals[in.A]; v.kind == vStep && v.readers == 1 {
			v.sunk, v.src = true, in.Buf
			fates[i].gone = true
			steps--
		}
	}

	// Fuse, from the last instruction back, so that the longest chain
	// ending at an instruction wins.
	for i := len(pass) - 1; i >= 0; i-- {
		if fates[i].gone {
			continue
		}
		for r, rowOps := range fusedOps {
			if rowOps[len(rowOps)-1] != pass[i].op {
				continue
			}
			if n := b.match(pass, fates, i, r); n > 0 {
				steps -= n
				break
			}
		}
	}

	// Emit the steps with their operands as registers, and note each
	// step's last reader.
	out.steps = make([]step, 0, steps)
	for i := range pass {
		if fates[i].gone {
			continue
		}
		in := &pass[i]
		s := step{op: in.op, width: in.Width, comp: in.Comp, gbufs: in.GBufs, dst: operand{idx: uint32(in.Dst)}}
		regs := [4]uint16{in.A, in.B, in.C}
		if r := fates[i].row; r >= 0 {
			s.op, regs = opFused+opcode(r), fates[i].inputs
		}
		for k := range s.args[:ops[s.op].reads] {
			s.args[k].idx = uint32(regs[k])
			if u, ok := b.lanesOf(regs[k]); ok {
				b.vals[u].last = int32(len(out.steps))
				mask := uint8(0xf) // the whole vector, or a decompose's lane
				if v := &b.vals[regs[k]]; v.kind == vPart {
					mask = 1 << v.comp
				}
				b.vals[u].comps |= mask
			}
		}
		switch in.op {
		case opLoad:
			s.args[0] = operand{idx: uint32(in.Buf), buf: true}
		case opStore:
			s.dst = operand{idx: uint32(in.Buf), buf: true}
		}
		out.steps = append(out.steps, s)
	}

	// Resolve the operands and map the registers onto lanes.
	regBase := uint32(1 + len(out.consts))
	next := regBase
	b.free[0], b.free[1] = b.free[0][:0], b.free[1][:0]
	for si := range out.steps {
		s := &out.steps[si]
		var dead [4]uint16
		nd := 0
		for k := range s.args[:ops[s.op].reads] {
			r := uint16(s.args[k].idx)
			s.args[k] = b.operand(r)
			if u, ok := b.lanesOf(r); ok && b.vals[u].last == int32(si) {
				b.vals[u].last = -1 // an operand read twice frees once
				dead[nd] = u
				nd++
			}
		}
		fused := s.op >= opFused
		if !fused {
			b.release(dead[:nd])
		}
		if s.op != opStore {
			v := &b.vals[s.dst.idx]
			if s.op == opLoad {
				s.comp = v.comps // a vector load fills only the lanes read
			}
			if v.sunk {
				s.dst = operand{idx: uint32(v.src), buf: true}
			} else {
				list := &b.free[b2i(v.vec)]
				if n := len(*list); n > 0 {
					v.lane, *list = (*list)[n-1], (*list)[:n-1]
				} else {
					v.lane = next
					next += uint32(1 + 3*b2i(v.vec))
				}
				s.dst = operand{idx: v.lane}
			}
		}
		if fused {
			b.release(dead[:nd])
		}
	}
	if s := out.steps; len(s) == 1 && s[0].op < opFused && len(out.consts) == 0 && s[0].dst.buf {
		out.whole = true
		for _, a := range s[0].args[:ops[s[0].op].reads] {
			out.whole = out.whole && a.buf
		}
	}
	return int(next)
}

// match tries fused row r at instruction root, which computes the row's
// last step, and returns how many instructions the row absorbs, 0 for no
// match. Walking the row's steps
// from the last, an operand a step takes from an earlier step must be a
// register computed in this pass by that step's primitive and read by no
// other instruction; the other operands become the row's inputs. The
// instructions' operand order is the row's, so a constant stays on the
// side the program wrote it.
func (b *viewBuilder) match(pass []Instr, fates []fate, root, r int) int {
	row, opsOf := &kernels.FusedRows()[r], fusedOps[r]
	last := len(opsOf) - 1
	var at [maxFusedSteps]int32 // the instruction matched to each step
	at[last] = int32(root)
	var inputs [4]uint16
	for j := last; j >= 0; j-- {
		in := &pass[at[j]]
		args := row.Steps[j].Args
		if args[0] == args[1] && in.A != in.B {
			return 0 // a square of two different registers
		}
		for k, reg := range [2]uint16{in.A, in.B} {
			d, ok := args[k].Step()
			if !ok {
				inputs[args[k]] = reg
				continue
			}
			v := &b.vals[reg]
			if v.kind != vStep || v.readers != 1 || pass[v.def].op != opsOf[d] {
				return 0
			}
			at[d] = v.def
		}
	}
	// An input may not be a value the row computes itself (x + t, x = t).
	for _, reg := range inputs[:row.Inputs] {
		for _, i := range at[:last] {
			if pass[i].Dst == reg {
				return 0
			}
		}
	}
	fates[root].row, fates[root].inputs = int8(r), inputs
	for _, i := range at[:last] {
		fates[i].gone = true
	}
	return last
}

// lanesOf returns the register whose lanes hold register r's value: r
// itself for a computed value, the vector for a decompose; ok is false
// for values that hold no register lanes.
func (b *viewBuilder) lanesOf(r uint16) (u uint16, ok bool) {
	switch v := &b.vals[r]; v.kind {
	case vStep:
		return r, true
	case vPart:
		return v.src, true
	}
	return 0, false
}

// operand resolves a register read.
func (b *viewBuilder) operand(r uint16) operand {
	switch v := &b.vals[r]; v.kind {
	case vWindow:
		return operand{idx: uint32(v.src), buf: true}
	case vPart:
		return operand{idx: b.vals[v.src].lane + uint32(v.comp)}
	default:
		return operand{idx: v.lane}
	}
}

// release returns dead registers' lanes to the free lists.
func (b *viewBuilder) release(dead []uint16) {
	for _, u := range dead {
		v := &b.vals[u]
		b.free[b2i(v.vec)] = append(b.free[b2i(v.vec)], v.lane)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
