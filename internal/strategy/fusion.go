package strategy

import (
	"fmt"

	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/ocl"
)

// Fusion is the paper's fastest execution strategy: the dynamic kernel
// generator (internal/codegen) fuses the entire network into a single
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
// With a buffer arena attached, warm executions of an unchanged source
// set reduce to the kernel dispatch and the one download: sources stay
// device-resident and the output/scratch buffers recycle from the pool.
type Fusion struct{}

// Name returns "fusion".
func (Fusion) Name() string { return "fusion" }

// fusionPlan holds the fused program — kernel generation is the
// planning step.
type fusionPlan struct {
	planBase
	prog *codegen.Program
}

// Plan generates the network's fused kernel program. Nothing here
// memoizes: the plan owns the program, and internal/compile's bounded
// plan cache is the only memo above it.
func (Fusion) Plan(net *dataflow.Network, _ *ocl.Device) (Plan, error) {
	base, err := newPlanBase("fusion", net)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Fuse(net, "expr")
	if err != nil {
		return nil, err
	}
	return &fusionPlan{planBase: base, prog: prog}, nil
}

// Execute runs the fused kernel.
func (p *fusionPlan) Execute(env *ocl.Env, bind Bindings) (*Result, error) {
	// Generation happened at plan time, on the host; every event from
	// here on is device activity.
	if err := p.beginRun(env, bind); err != nil {
		return nil, err
	}
	n := bind.N
	prog := p.prog

	bufs := make([]*ocl.Buffer, len(prog.Args))
	named := make(map[string]*ocl.Buffer, len(prog.Args))
	defer releaseAll(named)

	var outBufs []*ocl.Buffer // one per root, in Roots() order
	for i, a := range prog.Args {
		switch a.Kind {
		case codegen.ArgSource:
			src, err := bind.source(a.Name)
			if err != nil {
				return nil, err
			}
			b, _, err := env.UploadResident(a.Name, a.Name, src.Data, src.Width, bind.stable(src.Data))
			if err != nil {
				return nil, fmt.Errorf("fusion: source %q: %w", a.Name, err)
			}
			bufs[i], named[a.Name] = b, b
		case codegen.ArgScratch:
			b, err := env.NewBuffer(a.Name, n, a.Width)
			if err != nil {
				return nil, fmt.Errorf("fusion: scratch %q: %w", a.Name, err)
			}
			bufs[i], named[a.Name] = b, b
		case codegen.ArgOut:
			b, err := env.NewBuffer(a.Name, n, a.Width)
			if err != nil {
				return nil, fmt.Errorf("fusion: output: %w", err)
			}
			outBufs = append(outBufs, b)
			bufs[i], named[a.Name] = b, b
		}
	}

	if err := env.Run(prog.Kernel, n, bufs, nil); err != nil {
		return nil, fmt.Errorf("fusion: %w", err)
	}
	fields := make([]Field, 0, len(outBufs))
	for i, b := range outBufs {
		data, err := env.Download(b)
		if err != nil {
			return nil, err
		}
		fields = append(fields, Field{Data: data, Width: prog.OutWidths[i]})
	}
	res := finish(env, fields[0].Data, fields[0].Width)
	if len(fields) > 1 {
		res.Roots = fields
	}
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
