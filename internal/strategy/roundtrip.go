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
// Every re-upload keeps its Dev-W event (that is the strategy's defining
// traffic pattern) but binds the host array rather than copying it; with
// a buffer arena attached the buffers also come from the pool, so
// repeated and warm executions allocate no fresh device memory.
func planRoundtrip(net *dataflow.Network) (Plan, error) {
	base, err := newPlanBase("roundtrip", net)
	if err != nil {
		return nil, err
	}
	ks, err := nodeKernels(base)
	if err != nil {
		return nil, err
	}
	return &roundtripPlan{planBase: base, kernels: ks}, nil
}

// roundtripPlan precomputes the topological order and every computed
// node's kernel, indexed by network position; the const and decompose
// kernels go unused, as those run on the host.
type roundtripPlan struct {
	planBase
	kernels []*ocl.Kernel
}

// Execute runs the plan with per-primitive host round trips.
func (p *roundtripPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	n := bind.N

	// host holds every value as a host array, by network position:
	// sources, constants and all computed intermediates.
	nodes := p.net.Nodes()
	host := make([]Source, len(nodes))

	for _, node := range p.order {
		if err := bind.canceled(); err != nil {
			return Result{}, err
		}
		at := node.Pos()
		switch node.Filter {
		case "source":
			src, err := bind.source(node.ID)
			if err != nil {
				return Result{}, err
			}
			host[at] = src

		case "const":
			// A problem-sized constant array, filled on the host.
			data := make([]float32, n)
			v := float32(node.Value)
			for i := range data {
				data[i] = v
			}
			host[at] = Source{Data: data, Width: 1}

		case "decompose":
			in := host[node.Inputs[0]]
			out := make([]float32, n)
			w := in.Width
			for i := 0; i < n; i++ {
				out[i] = in.Data[i*w+node.Comp]
			}
			host[at] = Source{Data: out, Width: 1}

		default:
			res, err := roundtripKernel(env, p.kernels[at], nodes, node, host, n)
			if err != nil {
				return Result{}, err
			}
			host[at] = res
		}
	}

	// Every root is live, so the order computed it.
	out := host[p.net.Roots()[0]]
	res := finish(env, out.Data, out.Width)
	if p.net.MultiRoot() {
		for _, r := range p.net.Roots() {
			res.Roots = append(res.Roots, Field(host[r]))
		}
	}
	return res, nil
}

// roundtripKernel uploads the node's inputs (positions in nodes and
// host), runs one kernel, reads the result back and releases everything
// (recycling into the arena when one is attached).
func roundtripKernel(env *ocl.Env, k *ocl.Kernel, nodes []*dataflow.Node, node *dataflow.Node, host []Source, n int) (res Source, err error) {
	bufs := make([]*ocl.Buffer, 0, len(node.Inputs)+1)
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()

	for _, p := range node.Inputs {
		in := nodes[p].ID
		src := host[p]
		if src.Data == nil {
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
