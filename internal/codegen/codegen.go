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
// three views of that one lowered program: it renders the OpenCL C text
// from the instructions (source.go), folds the device model's ocl.Cost
// from them (cost.go), and wraps vm's executor, run range by range over
// the launch's buffer views, as the simulated device's kernel body.
package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"dfg/internal/dataflow"
	"dfg/internal/ocl"
	"dfg/internal/passes"
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

// Program is a generated fused kernel: its OpenCL C source, the
// executable kernel for the simulated device, and the buffer argument
// plan the execution strategy binds.
//
// A multi-root super-network fuses to one kernel with several ArgOut
// buffers, in the same order as the network's Roots(); single-root
// networks keep exactly one ArgOut named "out".
type Program struct {
	// Source is the complete generated OpenCL C source.
	Source string
	// Kernel executes the fusion (single dispatch; multiple passes only
	// in the materialization case).
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
	// Schedule is the canonical spec string of the schedule this program
	// was generated under ("" for the flat generator).
	Schedule string
}

// Fuse generates the fused kernel program for a validated network with a
// designated output. name tags the generated kernel (e.g. "qcrit" gives
// "kfused_qcrit").
func Fuse(net *dataflow.Network, name string) (*Program, error) {
	return FuseScheduled(net, name, nil)
}

// FuseScheduled is Fuse under a schedule: it emits the tiled /
// vectorized / temporally blocked kernel variant instead of the single
// flat body. A nil schedule is the flat generator; otherwise the
// schedule must have been computed by passes.ComputeSchedule for this
// same network — Verify re-checks it here before anything is emitted.
//
// The bitwise contract: every variant runs the same lowered program.
// Tiling, register blocking and vector loads only reshape the emitted
// source and the modeled memory traffic; temporal blocking re-runs the
// identical producer pass over a halo-extended range into scratch the
// consumer pass then reads back. Scheduled output is therefore zero-ULP
// identical to flat by construction; the differential fuzz target in
// internal/strategy enforces it end to end.
func FuseScheduled(net *dataflow.Network, name string, sched *passes.Schedule) (*Program, error) {
	g := &generator{name: name, sched: &passes.Schedule{}}
	if sched != nil {
		if err := sched.Verify(net); err != nil {
			return nil, err
		}
		g.sched, g.tag = sched, sched.Spec.String()
	}
	var err error
	if g.low, err = vm.Lower(net); err != nil {
		return nil, err
	}
	if sched != nil && len(g.low.Passes) != sched.Passes {
		return nil, fmt.Errorf("codegen: schedule computed for a %d-pass network, lowering found %d passes", sched.Passes, len(g.low.Passes))
	}
	g.expr = make([]string, g.low.NumVRegs)
	g.fused = make(map[string]bool, len(g.sched.FusedScratch))
	if g.sched.Temporal {
		for _, id := range g.sched.FusedScratch {
			g.fused[vm.ScratchName(id)] = true
		}
	}

	// Temporally fused intermediates drop out of the argument list: they
	// live in per-tile local arrays, which the executable stands in for
	// with pooled views it binds per launch chunk.
	exec := g.low.Program()
	args := make([]Arg, 0, len(g.low.Buffers))
	for _, b := range g.low.Buffers {
		if !g.fused[b.Name] {
			args = append(args, b)
		}
	}
	var fns []ocl.KernelFunc
	if g.sched.Temporal {
		fns = []ocl.KernelFunc{g.temporalFn(exec)}
	} else {
		for p := range g.low.Passes {
			p := p
			fns = append(fns, func(lo, hi int, bufs []ocl.View, _ []float64) { exec.RunPass(p, lo, hi, bufs) })
		}
	}

	src := g.renderSource()
	return &Program{
		Source: src,
		Kernel: &ocl.Kernel{
			Name:    "kfused_" + name,
			Source:  src,
			NumBufs: len(args),
			Cost:    g.cost(),
			Passes:  fns,
		},
		Exec:      exec,
		Args:      args,
		NumPasses: len(fns),
		OutWidth:  exec.OutWidth,
		OutWidths: exec.OutWidths,
		Schedule:  g.tag,
	}, nil
}

// generator holds one fusion's state: the lowered program and the
// schedule its views are rendered under.
type generator struct {
	name string
	low  *vm.Lowering
	// sched is the schedule annotation set; the zero Schedule (flat
	// spec, nothing staged) for the flat generator.
	sched *passes.Schedule
	tag   string // canonical spec string; "" for the flat generator
	// fused names the scratch buffers a temporal schedule keeps local.
	fused map[string]bool
	// expr is the source renderer's operand table: the C expression
	// currently standing for each virtual register.
	expr []string
}

// stencils calls f for every stencil instruction of pass p (every pass
// when p < 0) with the name of the field array it differences.
func (g *generator) stencils(p int, f func(in *vm.Instr, field string)) {
	for pi, pass := range g.low.Passes {
		if p >= 0 && pi != p {
			continue
		}
		for i := range pass {
			if in := &pass[i]; strings.HasPrefix(in.Filter(), "grad3d") {
				f(in, g.low.Buffers[in.GBufs[0]].Name)
			}
		}
	}
}

// temporalFn fuses the two passes into one dispatch phase. For each
// chunk [lo, hi) the producer pass re-runs over the halo-extended range
// [lo-halo, hi+halo) into pooled scratch views (the per-tile local
// arrays of the emitted source), then the consumer pass runs over
// exactly [lo, hi) reading them back. The halo is one z-plane (nx*ny
// elements) — the farthest neighbour any stencil reads — so every value
// the consumer touches was recomputed by the very same instructions that
// produced it in the flat program: bitwise identity holds per element.
func (g *generator) temporalFn(exec *vm.Program) ocl.KernelFunc {
	dimsIdx := -1
	g.stencils(-1, func(in *vm.Instr, _ string) {
		if dimsIdx < 0 {
			dimsIdx = int(in.GBufs[1])
		}
	})
	buffers, fused := g.low.Buffers, g.fused
	return func(lo, hi int, bufs []ocl.View, _ []float64) {
		elems := bufs[len(bufs)-1].Elems // the last argument is an output
		// Rebuild the buffer table's order: arguments as launched, with a
		// pooled view at each fused intermediate's position.
		all := make([]ocl.View, len(buffers))
		next := 0
		for i, b := range buffers {
			if fused[b.Name] {
				data := vm.GetScratch(elems * b.Width)
				defer vm.PutScratch(data)
				all[i] = ocl.View{Data: data, Elems: elems, Width: b.Width}
			} else {
				all[i] = bufs[next]
				next++
			}
		}
		halo := 0
		if dimsIdx >= 0 {
			dims := all[dimsIdx].Data
			halo = int(dims[0]) * int(dims[1])
		}
		lo2, hi2 := lo-halo, hi+halo
		if lo2 < 0 {
			lo2 = 0
		}
		if hi2 > elems {
			hi2 = elems
		}
		exec.RunPass(0, lo2, hi2, all)
		exec.RunPass(1, lo, hi, all)
	}
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
