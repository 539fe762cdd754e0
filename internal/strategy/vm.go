package strategy

import (
	"dfg/internal/dataflow"
	"dfg/internal/ocl"
	"dfg/internal/vm"
)

// VM executes the network's lowered program (internal/vm) on the host
// with zero device traffic: no uploads, no kernel launches, no
// downloads, no device buffers. It is the executor the fusion strategy's
// generated kernel runs, minus the device accounting, so it is the
// profitable tier for meshes small enough that launch and transfer
// overhead dominates, and the terminal rung of the degradation ladder:
// having no device dependency at all, it survives a lost device by
// construction.
//
// A VM run's Result consequently carries an empty device profile
// (Writes = Reads = Kernels = 0), no events and a zero memory high-water
// mark; tests use that signature to detect which tier served a request.
type VM struct{}

// Name returns "vm".
func (VM) Name() string { return "vm" }

// vmPlan holds the lowered program — lowering is the planning step.
type vmPlan struct {
	planBase
	prog *vm.Program
}

// Plan lowers the network. The device class is ignored: the plan never
// touches the device.
func (VM) Plan(net *dataflow.Network, _ *ocl.Device) (Plan, error) {
	base, err := newPlanBase("vm", net)
	if err != nil {
		return nil, err
	}
	prog, err := vm.Compile(net)
	if err != nil {
		return nil, err
	}
	return &vmPlan{planBase: base, prog: prog}, nil
}

// Execute runs the lowered program on the host. The environment is
// reset as on any other strategy so the (empty) profile captures exactly
// this run.
func (p *vmPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	src := func(name string) ([]float32, error) {
		s, err := bind.source(name)
		if err != nil {
			return nil, err
		}
		return s.Data, nil
	}
	views := env.Views(p.prog.NumBuffers())
	defer clear(views) // hold no array past the run
	outs, err := p.prog.RunAll(views, bind.N, src, bind.canceled)
	if err != nil {
		return Result{}, err
	}
	res := finish(env, outs[0].Data, outs[0].Width)
	res.fanOut(outs)
	return res, nil
}
