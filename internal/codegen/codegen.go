// Package codegen implements the paper's dynamic kernel generator: it
// fuses an entire dataflow network into a single generated OpenCL kernel
// (the "fusion" execution strategy). The generator provides every
// feature Section III-C.3 lists:
//
//   - per-element function calls for simple primitives (add, sub, ...),
//   - direct access to device global memory arrays for operations with
//     complex memory requirements (grad3d),
//   - source-code level insertion of constants,
//   - OpenCL vector types (float4) for operations returning multiple
//     values per element, and
//   - source-code level array-decompose as vector component selection
//     (val.s0, val.s1, ...).
//
// Intermediate results live in device registers. The one exception is
// the paper's Figure 2 scenario: when a stencil primitive consumes a
// *computed* value, that value must be materialized in a global scratch
// array before the stencil can read its neighbours. The fused kernel
// then splits into ordered passes with a device-wide barrier between
// them — still a single kernel dispatch, at the cost of one
// problem-sized scratch array, which is exactly the extra memory the
// paper's Figure 2 charges to fusion.
//
// The translation itself — pass assignment, materialization, the buffer
// table, instruction order — is internal/vm's Lower. This package is
// three views of that one lowered program: it folds the device model's
// ocl.Cost from the instructions (cost.go), wraps vm's executor, run
// range by range over the launch's buffer views, as the simulated
// device's kernel body, and renders the OpenCL C text from the
// instructions (source.go). The text is rendered on read — by Fuse or
// Program.Render — not per plan: the strategies plan with Build, and
// nothing on the evaluation path reads the source.
package codegen

import (
	"strconv"
	"strings"

	"dfg/internal/dataflow"
	"dfg/internal/ocl"
	"dfg/internal/vm"
)

// Arg describes one buffer argument of the generated kernel, in launch
// order: an entry of the lowered program's buffer table.
type (
	Arg     = vm.BufferSpec
	ArgKind = vm.BufKind
)

const (
	// ArgSource is a host-provided input array (uploaded once).
	ArgSource = vm.BufSource
	// ArgScratch is a device-only intermediate the strategy must
	// allocate (problem-sized; never transferred).
	ArgScratch = vm.BufScratch
	// ArgOut is the kernel's result array.
	ArgOut = vm.BufOut
)

// Program is a generated fused kernel: the executable kernel for the
// simulated device, the buffer argument plan the execution strategy
// binds, and the lowering its OpenCL C source is rendered from.
//
// A multi-root super-network fuses to one kernel with several ArgOut
// buffers, in the same order as the network's Roots(); single-root
// networks keep exactly one ArgOut named "out".
type Program struct {
	// Source is the complete generated OpenCL C source. Fuse fills it;
	// a Build program (what the strategies plan with) leaves it empty,
	// and Render produces the same text on demand.
	Source string
	// Kernel executes the fusion (single dispatch; multiple passes only
	// in the materialization case). Its Source is the same text as
	// Source.
	Kernel *ocl.Kernel
	// Exec is the lowered program the kernel's passes run — the same
	// executor the vm strategy drives without the device.
	Exec *vm.Program
	// Args is the kernel's buffer argument order.
	Args []Arg
	// NumPasses is 1 unless materialization forced pass splits.
	NumPasses int
	// OutWidth is the primary output's element width (roots[0]).
	OutWidth int
	// OutWidths holds every root's element width, in Roots() order.
	// len(OutWidths) == 1 except for merged super-networks.
	OutWidths []int

	name string
	low  *vm.Lowering
}

// Fuse generates the fused kernel program for a validated network with a
// designated output, source text included. name tags the generated
// kernel (e.g. "qcrit" gives "kfused_qcrit").
func Fuse(net *dataflow.Network, name string) (*Program, error) {
	p, err := Build(net, name)
	if err != nil {
		return nil, err
	}
	p.Source = p.Render()
	p.Kernel.Source = p.Source
	return p, nil
}

// Build generates the fused kernel program without rendering its
// source: the lowering, its ocl.Cost and the executable kernel. Render
// produces the text Fuse would have filled in.
func Build(net *dataflow.Network, name string) (*Program, error) {
	low, err := vm.Lower(net)
	if err != nil {
		return nil, err
	}
	return build(low, "kfused_"+name, name), nil
}

// BuildNode generates the kernel that computes node n of nodes (its
// network's Nodes()) by itself, from vm.LowerNode's one-pass lowering:
// the kernel the staged and roundtrip strategies launch per node. Its
// buffers are one per input, then out; it is named after the filter
// ("kadd", "kgrad3dx", "kconst_fill").
func BuildNode(nodes []*dataflow.Node, n *dataflow.Node) (*Program, error) {
	low, err := vm.LowerNode(nodes, n)
	if err != nil {
		return nil, err
	}
	entry := "k" + n.Filter
	if n.Filter == "const" {
		entry = "kconst_fill"
	}
	return build(low, entry, n.Filter), nil
}

// build wraps a lowering as a program: the executor runs each pass over
// the launch's buffer views, and the cost is folded from the
// instructions. entry is the kernel's name, name the program's tag.
func build(low *vm.Lowering, entry, name string) *Program {
	exec := low.Program()
	fns := make([]ocl.KernelFunc, len(low.Passes))
	for p := range fns {
		fns[p] = func(lo, hi int, bufs []ocl.View) { exec.RunPass(p, lo, hi, bufs) }
	}
	needs := make([]ocl.Need, len(low.Buffers))
	for i, b := range low.Buffers {
		needs[i] = b.Need
	}
	return &Program{
		Kernel: &ocl.Kernel{
			Name:    entry,
			NumBufs: len(low.Buffers),
			Needs:   needs,
			Cost:    cost(low),
			Passes:  fns,
		},
		Exec:      exec,
		Args:      low.Buffers,
		NumPasses: len(fns),
		OutWidth:  exec.OutWidth,
		OutWidths: exec.OutWidths,
		name:      name,
		low:       low,
	}
}

// Render returns the program's OpenCL C source, rendered from the
// retained lowering. It is safe to call concurrently.
func (p *Program) Render() string {
	g := &generator{name: p.name, entry: p.Kernel.Name, low: p.low, expr: make([]string, p.low.NumVRegs)}
	return g.renderSource()
}

// generator holds one rendering's state: the lowered program the source
// is rendered from.
type generator struct {
	name  string
	entry string // the kernel's name: each pass's entry point, numbered when there are several
	low   *vm.Lowering
	// expr is the source renderer's operand table: the C expression
	// currently standing for each virtual register.
	expr []string
	// needsGrad and needsAxis record which helper functions the rendered
	// statements call (dfg_grad3d, dfg_grad3d_axis).
	needsGrad, needsAxis bool
}

// cTypeFor returns the OpenCL C scalar/vector type of a width.
func cTypeFor(width int) string {
	if width == 1 {
		return "float"
	}
	return "float" + strconv.Itoa(width)
}

// cFloat renders a float constant as OpenCL C source.
func cFloat(v float32) string {
	s := strconv.FormatFloat(float64(v), 'g', -1, 32)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s + "f"
}
