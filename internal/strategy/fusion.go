package strategy

import (
	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/ocl"
)

// planFusion plans the paper's fastest execution strategy: the dynamic
// kernel generator (internal/codegen) fuses the entire network into a single
// generated OpenCL kernel. Intermediate results live in device
// registers, constants are compiled into the kernel source, decompose
// becomes vector component selection, and the gradient primitive reads
// its source arrays directly from global memory. One upload per distinct
// source, one kernel dispatch, one download — the Table II row
// (Dev-W = sources, Dev-R = 1, K-Exe = 1) for every expression.
//
// When a stencil consumes a computed value the generator splits the
// fused kernel into barrier-separated passes with a global scratch
// array; this remains a single dispatch but costs one extra
// problem-sized buffer (the paper's Figure 2 fusion column).
//
// With a buffer arena attached, sources bind to resident slots that
// alias the host's arrays (the mesh-derived ones skip their upload
// outright), the output/scratch buffers recycle from the pool, and the
// download hands the output buffer's storage over as the answer.
//
// Planning generates the network's fused kernel program; its OpenCL C
// text is not rendered (GeneratedSource renders it). Nothing here
// memoizes: the plan owns the program, and internal/compile's bounded
// plan cache is the only memo above it.
func planFusion(net *dataflow.Network) (Plan, error) {
	base, err := newPlanBase("fusion", net)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Build(net, "expr")
	if err != nil {
		return nil, err
	}
	return &devicePlan{planBase: base, prog: prog, sched: fusedSchedule(&base, prog)}, nil
}

// fusedSchedule binds each source, allocates the scratch arrays and
// outputs, launches the fused kernel once over every device slot (one
// per kernel argument) and downloads each output into a host slot, in
// Roots() order. An argument's ops carry its name; the launch, the
// kernel's.
func fusedSchedule(base *planBase, prog *codegen.Program) schedule {
	outs := len(prog.OutWidths)
	ops := make([]op, 0, len(prog.Args)+1+outs)
	labels := make([]string, len(prog.Args)+1)
	for i, a := range prog.Args {
		labels[i] = a.Name
		o := op{code: opAlloc, dst: int32(i), width: int8(a.Width), label: int32(i)}
		if a.Kind == codegen.ArgSource {
			o = op{code: opBind, dst: int32(i), src: base.need(a.Name), label: int32(i)}
		}
		ops = append(ops, o)
	}
	launch := int32(len(prog.Args))
	labels[launch] = prog.Kernel.Name
	ops = append(ops, op{code: opLaunch, count: launch, label: launch})
	host := int32(0)
	for i, a := range prog.Args {
		if a.Kind == codegen.ArgOut {
			ops = append(ops, op{code: opDownload, dst: host, src: int32(i), width: int8(a.Width), label: int32(i)})
			host++
		}
	}
	return schedule{ops: ops, args: firstSlots(len(prog.Args)), kernels: []*ocl.Kernel{prog.Kernel}, labels: labels,
		roots: firstSlots(outs), dev: int32(len(prog.Args)), host: int32(outs)}
}

// GeneratedSource returns the fused OpenCL C source for a network
// without executing it — the inspection hook behind cmd/dfg-fuse.
func GeneratedSource(net *dataflow.Network, name string) (string, error) {
	prog, err := codegen.Fuse(net, name)
	if err != nil {
		return "", err
	}
	return prog.Source, nil
}
