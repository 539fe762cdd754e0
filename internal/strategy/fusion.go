package strategy

import (
	"fmt"

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
	return &fusionPlan{planBase: base, prog: prog}, nil
}

// fusionPlan holds the fused program — kernel generation is the
// planning step.
type fusionPlan struct {
	planBase
	prog *codegen.Program
}

// maxStackArgs is how many kernel arguments Execute binds without
// allocating its argument list: every paper expression's fused kernel
// takes fewer (Q-criterion: dims, x, y, z, u, v, w and out).
const maxStackArgs = 16

// Execute runs the fused kernel.
func (p *fusionPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	// Generation happened at plan time, on the host; every event from
	// here on is device activity.
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	n := bind.N
	prog := p.prog

	var stack [maxStackArgs]*ocl.Buffer
	bufs := stack[:0]
	if len(prog.Args) > len(stack) {
		bufs = make([]*ocl.Buffer, 0, len(prog.Args))
	}
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()

	for _, a := range prog.Args {
		var b *ocl.Buffer
		var err error
		switch a.Kind {
		case codegen.ArgSource:
			var src Source
			if src, err = bind.source(a.Name); err != nil {
				return Result{}, err
			}
			if b, err = env.UploadResident(a.Name, a.Name, src.Data, src.Width, bind.stable(src.Data)); err != nil {
				return Result{}, fmt.Errorf("fusion: source %q: %w", a.Name, err)
			}
		case codegen.ArgScratch:
			if b, err = env.NewBuffer(a.Name, n, a.Width); err != nil {
				return Result{}, fmt.Errorf("fusion: scratch %q: %w", a.Name, err)
			}
		case codegen.ArgOut:
			if b, err = env.NewBuffer(a.Name, n, a.Width); err != nil {
				return Result{}, fmt.Errorf("fusion: output: %w", err)
			}
		}
		bufs = append(bufs, b)
	}

	if err := env.Run(prog.Kernel, n, bufs, nil); err != nil {
		return Result{}, fmt.Errorf("fusion: %w", err)
	}
	// Download every root's output, in Roots() order.
	var out []float32
	var roots []Field // multi-root runs only
	for i, a := range prog.Args {
		if a.Kind != codegen.ArgOut {
			continue
		}
		data, err := env.Download(bufs[i])
		if err != nil {
			return Result{}, err
		}
		if out == nil {
			out = data
		}
		if len(prog.OutWidths) > 1 {
			roots = append(roots, Field{Data: data, Width: prog.OutWidths[len(roots)]})
		}
	}
	res := finish(env, out, prog.OutWidth)
	res.Roots = roots
	return res, nil
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
