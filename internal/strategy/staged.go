package strategy

import (
	"fmt"
	"slices"

	"dfg/internal/dataflow"
	"dfg/internal/ocl"
)

// planStaged plans the paper's middle execution strategy: one kernel dispatch
// per primitive, like roundtrip, but intermediate results stay in device
// global memory between kernel invocations — no host round trips. Each
// distinct source array is uploaded once up front and the final result
// is read back once. Consequences, matching Table II and Figure 6:
//
//   - decompose must run as a device kernel (the vector-typed value it
//     selects from lives on the device), adding kernel dispatches that
//     roundtrip avoids;
//   - constants are realized by a device fill kernel, with no
//     host-to-device transfer;
//   - every kernel is a node kernel (codegen.BuildNode): one pass of the
//     lowering fusion runs, over one buffer per input;
//   - device buffers are reference counted against the network's
//     consumer counts and released the moment they drain, yet staged
//     still has the largest memory high-water mark of the three
//     strategies, because whole chains of intermediates overlap.
//
// With a buffer arena attached, sources bind to resident slots (a
// mesh-derived source skips its upload on warm executions), and
// intermediates recycle through the pool instead of churning fresh
// allocations.
//
// keep disables the reference-count-driven buffer releases — an
// ablation of the dataflow module's refcounting design, showing how
// much device memory the eager frees save. Only the ablation's tests
// and benchmark set it; Strategy.Plan never does.
func planStaged(net *dataflow.Network, keep bool) (Plan, error) {
	base, err := newPlanBase("staged", net)
	if err != nil {
		return nil, err
	}
	ks, err := nodeKernels(base)
	if err != nil {
		return nil, err
	}
	refs := make([]int32, net.Len())
	for _, node := range base.order {
		for _, in := range node.Inputs {
			refs[in]++
		}
	}
	for _, r := range net.Roots() {
		refs[r]++ // one sink reference per root
	}
	return &stagedPlan{planBase: base, keep: keep, kernels: ks, refs: refs}, nil
}

// stagedPlan precomputes the topological order, every computed node's
// kernel and the refcount schedule (consumer counts per node, plus one
// for the sink), each indexed by network position.
type stagedPlan struct {
	planBase
	keep    bool
	kernels []*ocl.Kernel
	// refs is the immutable refcount template; Execute works on a copy.
	refs []int32
}

// Execute runs the plan with device-resident intermediates.
func (p *stagedPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	n := bind.N
	nodes := p.net.Nodes()

	// Each node's device buffer and its per-run copy of the refcount
	// schedule, by network position, so buffers release the moment they
	// drain.
	bufs := make([]*ocl.Buffer, len(nodes))
	defer func() {
		for _, b := range bufs {
			if b != nil {
				b.Release()
			}
		}
	}()
	refs := slices.Clone(p.refs)

	// Upload every live source once, in network declaration order.
	// Sources go through the resident path: with an arena attached, a
	// mesh-derived source is already on the device and skips its upload.
	for _, node := range p.order {
		if node.Filter != "source" {
			continue
		}
		src, err := bind.source(node.ID)
		if err != nil {
			return Result{}, err
		}
		b, err := env.UploadResident(node.ID, node.ID, src.Data, src.Width, bind.stable(src.Data))
		if err != nil {
			return Result{}, fmt.Errorf("staged: source %q: %w", node.ID, err)
		}
		bufs[node.Pos()] = b
	}

	// release drains one reference from a node's buffer. Resident
	// source buffers ignore the Release (the arena owns them).
	release := func(at int32) {
		if refs[at]--; refs[at] <= 0 && !p.keep && bufs[at] != nil {
			bufs[at].Release()
			bufs[at] = nil
		}
	}

	args := make([]*ocl.Buffer, 0, 6) // a stencil's five inputs and out
	for _, node := range p.order {
		if err := bind.canceled(); err != nil {
			return Result{}, err
		}
		if node.Filter == "source" {
			continue
		}
		out, err := env.NewBuffer(node.ID, n, node.Width)
		if err != nil {
			return Result{}, fmt.Errorf("staged: node %q: %w", node.ID, err)
		}
		bufs[node.Pos()] = out

		args = args[:0]
		for _, in := range node.Inputs {
			b := bufs[in]
			if b == nil {
				return Result{}, fmt.Errorf("staged: node %q: input %q already released (refcount bug)", node.ID, nodes[in].ID)
			}
			args = append(args, b)
		}
		if err := env.Run(p.kernels[node.Pos()], n, append(args, out), nil); err != nil {
			return Result{}, fmt.Errorf("staged: node %q: %w", node.ID, err)
		}

		// Drain one reference per input connection.
		for _, in := range node.Inputs {
			release(in)
		}
	}

	// Download every root (one for ordinary networks), releasing each
	// sink reference only after its download so shared roots survive.
	// Roots are distinct nodes (the network collapses a merged pair), so
	// each buffer is downloaded once and can hand its storage over.
	fields := make([]Field, 0, 1)
	for _, r := range p.net.Roots() {
		outBuf := bufs[r]
		if outBuf == nil {
			return Result{}, fmt.Errorf("staged: output %q was not retained (refcount bug)", nodes[r].ID)
		}
		data, err := env.Download(outBuf)
		if err != nil {
			return Result{}, err
		}
		fields = append(fields, Field{Data: data, Width: nodes[r].Width})
		release(r) // the sink's reference
	}
	res := finish(env, fields[0].Data, fields[0].Width)
	if p.net.MultiRoot() {
		res.Roots = fields
	}
	return res, nil
}
