// Package vm is the lowering and the executor of fused dataflow
// networks. Lower translates a sealed network, once, into the paper's
// dynamic-kernel form (Section III-C.3, Figure 2): ordered passes of
// instructions over virtual registers plus a buffer table. Everything
// else in the repository is a view of that one lowered form:
//
//   - source: internal/codegen renders the OpenCL C text from it;
//   - cost: internal/codegen folds the device model's ocl.Cost from its
//     instructions;
//   - execution: Lowering.Program builds the executor's view (view.go):
//     operands that read buffers and vector lanes in place, constants
//     filled once per range, single-use chains as fused rows, and
//     registers on slab lanes with last-use liveness. The resulting
//     Program runs on a handler table over a pooled register slab.
//
// The fusion strategy is this executor plus device accounting (uploads,
// one launch, downloads on the simulated device); the vm strategy is the
// executor alone, over host arrays in place, with zero device traffic —
// the profitable tier for meshes small enough that launch and transfer
// overhead dominates. Both run the same Program, so their outputs are
// bitwise equal by construction; the differential harnesses instead
// compare the blocked executor against vmtest.Reference, a per-element
// interpreter over the virtual registers. The staged and roundtrip
// strategies' kernels run the same executor over LowerNode's one-pass
// form of a single node.
package vm

import (
	"fmt"
	"strconv"

	"dfg/internal/dataflow"
	"dfg/internal/kernels"
	"dfg/internal/ocl"
)

// opcode is the executor's dispatch index. Other packages see an
// instruction's operation through Instr.Filter, in the dataflow filter
// vocabulary.
type opcode uint8

const (
	opLoad opcode = iota // dst <- buf[gid] (width from Instr.Width)
	opConst
	opNorm
	opDecomp
	opGrad
	opGradAxis // single-axis gradient (Instr.Comp selects the axis)
	opStore    // buf[gid] <- a (width from Instr.Width)

	// opElementwise + i is row i of kernels.Primitives().
	opElementwise
)

// numOpcodes sizes the opcode-indexed tables to the whole opcode type
// (the elementwise row count is not a constant).
const numOpcodes = 1 << 8

// ops names each opcode and gives the number of register operands it
// reads (A, then B, then C; loads, constants and stencils read none),
// and opOf maps a name back to its opcode. exec.go's init fills both
// beside the handlers, the elementwise rows from the primitive table.
// opGradAxis covers three filters, told apart by Instr.Comp; the
// lowering recognises stencils by class, never through this name.
var (
	ops [numOpcodes]struct {
		name  string
		reads uint8
	}
	opOf = make(map[string]opcode)
)

// setOp names an opcode and gives its register read count.
func setOp(op opcode, name string, reads int) {
	ops[op].name, ops[op].reads = name, uint8(reads)
	opOf[name] = op
}

// gradAxisNames are opGradAxis's filter names by Instr.Comp.
var gradAxisNames = [3]string{"grad3dx", "grad3dy", "grad3dz"}

// Instr is one lowered instruction. Register operands are virtual
// registers (register i holds the i-th live node in topological order);
// Buf and GBufs index the buffer table.
type Instr struct {
	op    opcode
	Width uint8  // element width for load/store
	Comp  uint8  // decompose component / gradient axis
	Dst   uint16 // destination register
	A     uint16 // register operands
	B     uint16
	C     uint16
	Buf   uint16    // buffer index for load/store
	Val   float32   // constant value
	GBufs [5]uint16 // stencils: field, dims, x, y, z buffer indices
}

// Filter names the instruction's operation: the dataflow filter it
// computes ("add", "grad3dx", "const", ...), or "load" / "store" for
// the buffer accesses the lowering inserted.
func (in *Instr) Filter() string {
	if in.op == opGradAxis {
		return gradAxisNames[in.Comp]
	}
	return ops[in.op].name
}

// Reads appends the instruction's register read operands to dst.
func (in *Instr) Reads(dst []uint16) []uint16 {
	regs := [3]uint16{in.A, in.B, in.C}
	return append(dst, regs[:ops[in.op].reads]...)
}

// BufKind classifies one entry of the buffer table.
type BufKind int

const (
	// BufSource is a host-provided input array. The executor reads it in
	// place; the device strategies upload it once.
	BufSource BufKind = iota
	// BufScratch is a materialized intermediate (problem-sized; never
	// transferred).
	BufScratch
	// BufOut is a result array.
	BufOut
)

// String names the buffer kind.
func (k BufKind) String() string {
	switch k {
	case BufSource:
		return "source"
	case BufScratch:
		return "scratch"
	case BufOut:
		return "out"
	default:
		return fmt.Sprintf("BufKind(%d)", int(k))
	}
}

// BufferSpec describes one buffer of a lowered network, in binding
// order: live sources in network declaration order, then scratch in
// topological order, then one output per root.
type BufferSpec struct {
	Kind  BufKind
	Name  string // source name, scratch label, or "out" / "out<i>"
	Width int    // element width in float32 components

	// Need is the length a run over n elements requires (Need.Of(n)),
	// derived from the instructions: per-element loads and stencil
	// field/coordinate reads need problem-sized arrays; the dims
	// descriptor only ever has its first three elements read.
	Need ocl.Need
}

// Lowering is the lowered form of one sealed network: per-pass
// instructions over virtual registers and the buffer table they index.
// A multi-root super-network lowers to several BufOut entries, in the
// network's Roots() order.
type Lowering struct {
	Buffers []BufferSpec
	// Passes holds one instruction list per pass: 1 unless a stencil
	// consumes a computed value (the paper's Figure 2 barrier rule).
	Passes [][]Instr
	// OutWidths holds every root's element width, in Roots() order.
	OutWidths []int
	// NumVRegs is the virtual register count (the live node count).
	NumVRegs int
}

// lowerer holds the lowering state for one network. Per-node state is
// indexed by the node's position in topological order, which is also its
// virtual register.
type lowerer struct {
	order []*dataflow.Node
	rank  []int // network position -> position in order; -1 for a dead node
	roots []int

	pass      []int  // node -> pass index
	mat       []bool // node needs problem-sized scratch
	buf       []int  // node -> buffer index (sources, materialized nodes)
	numPasses int

	buffers []BufferSpec
	outBuf  int   // buffer index of the first output
	loaded  []int // node -> 1 + the last pass that loaded it into a register
}

// Lower translates a validated network with a designated output into its
// lowered form.
func Lower(net *dataflow.Network) (*Lowering, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	order, err := net.TopoOrder()
	if err != nil {
		return nil, err
	}
	c := &lowerer{
		order:  order,
		rank:   make([]int, net.Len()),
		pass:   make([]int, len(order)),
		mat:    make([]bool, len(order)),
		buf:    make([]int, len(order)),
		loaded: make([]int, len(order)),
	}
	for p := range c.rank {
		c.rank[p] = -1
	}
	for i, n := range order {
		c.rank[n.Pos()] = i
	}
	widths := make([]int, 0, len(net.Roots()))
	for _, r := range net.Roots() {
		c.roots = append(c.roots, c.rank[r])
		widths = append(widths, order[c.rank[r]].Width)
	}
	if err := c.assignPasses(); err != nil {
		return nil, err
	}
	c.planBuffers(net)
	if len(order) > 1<<16-1 || len(c.buffers) > 1<<16-1 {
		return nil, fmt.Errorf("vm: program too large (%d registers, %d buffers)", len(order), len(c.buffers))
	}
	low := &Lowering{Buffers: c.buffers, OutWidths: widths, NumVRegs: len(order)}
	for p := 0; p < c.numPasses; p++ {
		plan, err := c.emitPass(p)
		if err != nil {
			return nil, err
		}
		low.Passes = append(low.Passes, plan)
	}
	low.computeNeeds()
	return low, nil
}

// computeNeeds derives each buffer's length requirement from how the
// instructions access it.
func (l *Lowering) computeNeeds() {
	perN := func(b uint16, m int) {
		if need := &l.Buffers[b].Need; need.PerN < m {
			need.PerN = m
		}
	}
	for _, pass := range l.Passes {
		for _, in := range pass {
			switch in.op {
			case opLoad, opStore:
				perN(in.Buf, int(in.Width))
			case opGrad, opGradAxis:
				perN(in.GBufs[0], 1) // field, read at neighbour indices < n
				if need := &l.Buffers[in.GBufs[1]].Need; need.Fixed < 3 {
					need.Fixed = 3 // dims: nx, ny, nz
				}
				for _, b := range in.GBufs[2:] {
					perN(b, 1) // coordinate arrays, indexed per element
				}
			}
		}
	}
}

// isLeaf reports whether the node is realized on demand rather than
// computed: sources are globally readable, constants are immediates.
func isLeaf(n *dataflow.Node) bool { return n.Filter == "source" || n.Filter == "const" }

// assignPasses computes each node's pass and the materialization set: a
// stencil whose field input is computed runs at least one pass after
// that input, and any value consumed in a later pass than it is computed
// in must be materialized to problem-sized scratch.
func (c *lowerer) assignPasses() error {
	for i, n := range c.order {
		p := 0
		for _, in := range n.Inputs {
			if ip := c.pass[c.rank[in]]; ip > p {
				p = ip
			}
		}
		if n.Info().Class == dataflow.ClassStencil {
			for _, in := range n.Inputs[1:] {
				if in := c.order[c.rank[in]]; in.Filter != "source" {
					return fmt.Errorf("vm: %s input %q must be a source array (dims/coords cannot be computed)", n.Filter, in.ID)
				}
			}
			if f := c.rank[n.Inputs[0]]; c.order[f].Filter != "source" {
				// The stencil reads neighbours of a computed value:
				// materialize it and synchronize before this pass.
				c.mat[f] = true
				if c.pass[f]+1 > p {
					p = c.pass[f] + 1
				}
			}
		}
		c.pass[i] = p
	}
	for i, n := range c.order {
		for _, in := range n.Inputs {
			if j := c.rank[in]; !isLeaf(c.order[j]) && c.pass[j] < c.pass[i] {
				c.mat[j] = true
			}
		}
	}
	for _, r := range c.roots {
		if p := c.pass[r] + 1; p > c.numPasses {
			c.numPasses = p
		}
	}
	// A root computed before the final pass is consumed by the final
	// store, so it must be materialized like any cross-pass value.
	for _, r := range c.roots {
		if !isLeaf(c.order[r]) && c.pass[r] < c.numPasses-1 {
			c.mat[r] = true
		}
	}
	return nil
}

// planBuffers fixes the buffer table: live sources in network
// declaration order, then scratch in topological order, then the
// outputs (a single root keeps the name "out"; super-network roots are
// numbered).
func (c *lowerer) planBuffers(net *dataflow.Network) {
	for _, s := range net.Sources() {
		if i := c.rank[s.Pos()]; i >= 0 {
			c.buf[i] = len(c.buffers)
			c.buffers = append(c.buffers, BufferSpec{Kind: BufSource, Name: s.ID, Width: s.Width})
		}
	}
	for i, n := range c.order {
		if c.mat[i] {
			c.buf[i] = len(c.buffers)
			c.buffers = append(c.buffers, BufferSpec{Kind: BufScratch, Name: "scratch_" + n.ID, Width: n.Width})
		}
	}
	c.outBuf = len(c.buffers)
	for i, r := range c.roots {
		name := "out"
		if len(c.roots) > 1 {
			name += strconv.Itoa(i)
		}
		c.buffers = append(c.buffers, BufferSpec{Kind: BufOut, Name: name, Width: c.order[r].Width})
	}
}

// emitPass produces one pass's instructions: operands load on demand the
// first time a pass touches them, stencils read buffers directly,
// materialized values store to scratch as soon as they are computed, and
// the final pass ends with the output stores. A constant is materialized
// only as a stencil's field: it is then emitted like a computed value, so
// the scratch the stencil reads is filled in the pass before it.
func (c *lowerer) emitPass(p int) ([]Instr, error) {
	// Every node contributes at most one instruction per pass, plus one
	// store per scratch or output buffer.
	plan := make([]Instr, 0, len(c.order)+len(c.buffers))

	// operand returns the register holding order[i], loading it first if
	// this pass has not yet: a constant, a source, or a value an earlier
	// pass left in scratch.
	operand := func(i int) uint16 {
		n := c.order[i]
		if (isLeaf(n) || c.pass[i] < p) && c.loaded[i] != p+1 {
			c.loaded[i] = p + 1
			if n.Filter == "const" {
				plan = append(plan, Instr{op: opConst, Dst: uint16(i), Val: float32(n.Value)})
			} else {
				plan = append(plan, Instr{op: opLoad, Dst: uint16(i), Buf: uint16(c.buf[i]), Width: uint8(n.Width)})
			}
		}
		return uint16(i)
	}

	for i, n := range c.order {
		if c.pass[i] != p || isLeaf(n) && !c.mat[i] {
			continue // leaves are realized on demand by operand()
		}
		in := Instr{Dst: uint16(i)}
		switch {
		case n.Filter == "const":
			in.op, in.Val = opConst, float32(n.Value)
			c.loaded[i] = p + 1
		case n.Info().Class == dataflow.ClassStencil:
			in.op = opGrad
			if axis, ok := kernels.GradAxisOf(n.Filter); ok {
				in.op, in.Comp = opGradAxis, uint8(axis)
			}
			for k, p := range n.Inputs {
				in.GBufs[k] = uint16(c.buf[c.rank[p]])
			}
		default:
			op, ok := opOf[n.Filter]
			if !ok {
				return nil, fmt.Errorf("vm: no lowering rule for filter %q", n.Filter)
			}
			in.op, in.Comp = op, uint8(n.Comp)
			regs := [3]*uint16{&in.A, &in.B, &in.C}
			for k, p := range n.Inputs {
				*regs[k] = operand(c.rank[p])
			}
		}
		plan = append(plan, in)
		if c.mat[i] {
			plan = append(plan, Instr{op: opStore, A: uint16(i), Buf: uint16(c.buf[i]), Width: uint8(n.Width)})
		}
	}

	if p == c.numPasses-1 {
		for k, r := range c.roots {
			a := operand(r)
			plan = append(plan, Instr{op: opStore, A: a, Buf: uint16(c.outBuf + k), Width: uint8(c.order[r].Width)})
		}
	}
	return plan, nil
}

// nodeBufs name a one-node pass's input buffers: a primitive's operands,
// or a stencil's field, extents and coordinates.
var nodeBufs = [2][]string{{"a", "b", "c"}, {"f", "dims", "x", "y", "z"}}

// LowerNode lowers node n of nodes (its network's Nodes()) by itself: one
// pass that reads one buffer per input, in input order and at the input's
// width, and stores the value into the last buffer, out. Duplicate inputs
// stay separate buffers, so u*u loads u twice, as a kernel launched on its
// own does. A constant's value and a decompose's component are baked into
// the instruction. It is the form of the staged and roundtrip strategies'
// kernels, one per computed node.
func LowerNode(nodes []*dataflow.Node, n *dataflow.Node) (*Lowering, error) {
	in := Instr{Dst: uint16(len(n.Inputs)), Comp: uint8(n.Comp), Val: float32(n.Value)}
	op, ok := opOf[n.Filter]
	if axis, isAxis := kernels.GradAxisOf(n.Filter); isAxis {
		op, ok, in.Comp = opGradAxis, true, uint8(axis)
	}
	stencil := op == opGrad || op == opGradAxis
	names := nodeBufs[b2i(stencil)]
	if !ok || op == opLoad || op == opStore || len(n.Inputs) > len(names) {
		return nil, fmt.Errorf("vm: no one-node kernel for filter %q", n.Filter)
	}
	in.op = op
	low := &Lowering{OutWidths: []int{n.Width}, NumVRegs: len(n.Inputs) + 1}
	var pass []Instr
	for k, p := range n.Inputs {
		w := nodes[p].Width
		low.Buffers = append(low.Buffers, BufferSpec{Kind: BufSource, Name: names[k], Width: w})
		if stencil {
			in.GBufs[k] = uint16(k)
			continue
		}
		pass = append(pass, Instr{op: opLoad, Dst: uint16(k), Buf: uint16(k), Width: uint8(w)})
		*[3]*uint16{&in.A, &in.B, &in.C}[k] = uint16(k)
	}
	low.Buffers = append(low.Buffers, BufferSpec{Kind: BufOut, Name: "out", Width: n.Width})
	low.Passes = [][]Instr{append(pass, in, Instr{op: opStore, A: in.Dst, Buf: in.Dst, Width: uint8(n.Width)})}
	low.computeNeeds()
	return low, nil
}

// Compile lowers a validated network and builds its executor view.
func Compile(net *dataflow.Network) (*Program, error) {
	low, err := Lower(net)
	if err != nil {
		return nil, err
	}
	return low.Program(), nil
}
