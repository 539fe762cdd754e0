package strategy

import (
	"fmt"

	"dfg/internal/dataflow"
	"dfg/internal/ocl"
)

// planRoundtrip plans the paper's baseline execution strategy: one kernel
// dispatch per derived-field primitive, with every kernel's inputs
// uploaded fresh from host memory and its result transferred straight
// back. Intermediates live on the host, so the device only ever holds
// one kernel's working set — the least device memory of the three
// strategies, at the cost of maximal bus traffic.
//
// Per the original implementation's accounting (Table II):
//   - every buffer argument of every kernel is a host-to-device write,
//     duplicates included (u*u uploads u twice);
//   - constants are host-filled problem-sized arrays, uploaded at each
//     use like any other input;
//   - decompose runs on the host (intermediates are host-resident
//     anyway), dispatching no kernel and moving no extra data.
//
// With a buffer arena attached the re-uploads keep their Dev-W events
// (that is the strategy's defining traffic pattern) but draw their
// buffers from the pool, so repeated and warm executions allocate no
// fresh device memory.
func planRoundtrip(net *dataflow.Network) (Plan, error) {
	base, err := newPlanBase("roundtrip", net)
	if err != nil {
		return nil, err
	}
	ks, err := planKernels(base.order, roundtripHostSide)
	if err != nil {
		return nil, err
	}
	return &roundtripPlan{planBase: base, kernels: ks}, nil
}

// roundtripPlan precomputes the topological order and the kernel for
// each distinct device-dispatched filter.
type roundtripPlan struct {
	planBase
	kernels map[string]*ocl.Kernel
}

// roundtripHostSide marks the filters roundtrip handles without a
// kernel dispatch.
func roundtripHostSide(filter string) bool {
	return filter == "const" || filter == "decompose"
}

// Execute runs the plan with per-primitive host round trips.
func (p *roundtripPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	n := bind.N

	// host holds every value as a host array: sources, constants and all
	// computed intermediates.
	host := make(map[string]Source, len(p.order))
	nodes := p.net.Nodes()

	for _, node := range p.order {
		if err := bind.canceled(); err != nil {
			return Result{}, err
		}
		switch node.Filter {
		case "source":
			src, err := bind.source(node.ID)
			if err != nil {
				return Result{}, err
			}
			host[node.ID] = src

		case "const":
			// A problem-sized constant array, filled on the host.
			data := make([]float32, n)
			v := float32(node.Value)
			for i := range data {
				data[i] = v
			}
			host[node.ID] = Source{Data: data, Width: 1}

		case "decompose":
			in := host[nodes[node.Inputs[0]].ID]
			out := make([]float32, n)
			w := in.Width
			for i := 0; i < n; i++ {
				out[i] = in.Data[i*w+node.Comp]
			}
			host[node.ID] = Source{Data: out, Width: 1}

		default:
			res, err := roundtripKernel(env, p.kernels[node.Filter], nodes, node, host, n)
			if err != nil {
				return Result{}, err
			}
			host[node.ID] = res
		}
	}

	out, ok := host[p.net.Output()]
	if !ok {
		return Result{}, fmt.Errorf("roundtrip: output %q was never computed", p.net.Output())
	}
	res := finish(env, out.Data, out.Width)
	if p.net.MultiRoot() {
		for _, r := range p.net.Roots() {
			h, ok := host[nodes[r].ID]
			if !ok {
				return Result{}, fmt.Errorf("roundtrip: root %q was never computed", nodes[r].ID)
			}
			res.Roots = append(res.Roots, Field{Data: h.Data, Width: h.Width})
		}
	}
	return res, nil
}

// roundtripKernel uploads the node's inputs (positions in nodes), runs
// one kernel, reads the result back and releases everything (recycling
// into the arena when one is attached).
func roundtripKernel(env *ocl.Env, k *ocl.Kernel, nodes []*dataflow.Node, node *dataflow.Node, host map[string]Source, n int) (res Source, err error) {
	bufs := make([]*ocl.Buffer, 0, len(node.Inputs)+1)
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()

	for _, p := range node.Inputs {
		in := nodes[p].ID
		src, ok := host[in]
		if !ok {
			return Source{}, fmt.Errorf("roundtrip: node %q: input %q not yet computed", node.ID, in)
		}
		b, err := env.Upload(in, src.Data, src.Width)
		if err != nil {
			return Source{}, fmt.Errorf("roundtrip: node %q: %w", node.ID, err)
		}
		bufs = append(bufs, b)
	}

	outBuf, err := env.NewBuffer(node.ID, n, node.Width)
	if err != nil {
		return Source{}, fmt.Errorf("roundtrip: node %q: %w", node.ID, err)
	}
	bufs = append(bufs, outBuf)

	if err := env.Run(k, n, bufs, nil); err != nil {
		return Source{}, fmt.Errorf("roundtrip: node %q: %w", node.ID, err)
	}
	data, err := env.Download(outBuf)
	if err != nil {
		return Source{}, fmt.Errorf("roundtrip: node %q: %w", node.ID, err)
	}
	return Source{Data: data, Width: node.Width}, nil
}
