package strategy

import (
	"fmt"

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
//   - device buffers are reference counted against the network's
//     consumer counts and released the moment they drain, yet staged
//     still has the largest memory high-water mark of the three
//     strategies, because whole chains of intermediates overlap.
//
// With a buffer arena attached, sources become device-resident: an
// unchanged source skips its upload entirely on warm executions, and
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
	ks, err := planKernels(base.order, func(string) bool { return false })
	if err != nil {
		return nil, err
	}
	refs := make(map[string]int, len(base.order))
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

// stagedPlan precomputes the topological order, the kernel for every
// distinct filter, and the refcount schedule (consumer counts per node,
// plus one for the sink).
type stagedPlan struct {
	planBase
	keep    bool
	kernels map[string]*ocl.Kernel
	// refs is the immutable refcount template; Execute works on a copy.
	refs map[string]int
}

// Execute runs the plan with device-resident intermediates.
func (p *stagedPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	n := bind.N

	bufs := make(map[string]*ocl.Buffer, len(p.order))
	defer releaseAll(bufs)
	// Per-run copy of the plan's refcount schedule, so buffers release
	// the moment they drain.
	refs := make(map[string]int, len(p.refs))
	for id, c := range p.refs {
		refs[id] = c
	}

	// Upload every live source once, in network declaration order.
	// Sources go through the resident path: with an arena attached, an
	// unchanged source is already on the device and skips its upload.
	for _, node := range p.order {
		if node.Filter != "source" {
			continue
		}
		src, err := bind.source(node.ID)
		if err != nil {
			return Result{}, err
		}
		b, _, err := env.UploadResident(node.ID, node.ID, src.Data, src.Width, bind.stable(src.Data))
		if err != nil {
			return Result{}, fmt.Errorf("staged: source %q: %w", node.ID, err)
		}
		bufs[node.ID] = b
	}

	// release drains one reference from a node's buffer. Resident
	// source buffers ignore the Release (the arena owns them).
	release := func(id string) {
		refs[id]--
		if refs[id] <= 0 && !p.keep {
			if b := bufs[id]; b != nil {
				b.Release()
				delete(bufs, id)
			}
		}
	}

	for _, node := range p.order {
		if err := bind.canceled(); err != nil {
			return Result{}, err
		}
		if node.Filter == "source" {
			continue
		}
		k := p.kernels[node.Filter]

		out, err := env.NewBuffer(node.ID, n, node.Width)
		if err != nil {
			return Result{}, fmt.Errorf("staged: node %q: %w", node.ID, err)
		}
		bufs[node.ID] = out

		var (
			args    []*ocl.Buffer
			scalars []float64
		)
		switch node.Filter {
		case "const":
			args = []*ocl.Buffer{out}
			scalars = []float64{node.Value}
		case "decompose":
			args = []*ocl.Buffer{bufs[node.Inputs[0]], out}
			scalars = []float64{float64(node.Comp)}
		default:
			args = make([]*ocl.Buffer, 0, len(node.Inputs)+1)
			for _, in := range node.Inputs {
				b, ok := bufs[in]
				if !ok {
					return Result{}, fmt.Errorf("staged: node %q: input %q already released (refcount bug)", node.ID, in)
				}
				args = append(args, b)
			}
			args = append(args, out)
		}

		if err := env.Run(k, n, args, scalars); err != nil {
			return Result{}, fmt.Errorf("staged: node %q: %w", node.ID, err)
		}

		// Drain one reference per input connection.
		for _, in := range node.Inputs {
			release(in)
		}
	}

	// Download every root (one for ordinary networks), releasing each
	// sink reference only after its download so shared roots survive.
	fields := make([]Field, 0, 1)
	for _, rid := range p.net.Roots() {
		outBuf, ok := bufs[rid]
		if !ok {
			return Result{}, fmt.Errorf("staged: output %q was not retained (refcount bug)", rid)
		}
		data, err := env.Download(outBuf)
		if err != nil {
			return Result{}, err
		}
		fields = append(fields, Field{Data: data, Width: p.net.NodeByID(rid).Width})
		release(rid) // the sink's reference
	}
	res := finish(env, fields[0].Data, fields[0].Width)
	if p.net.MultiRoot() {
		res.Roots = fields
	}
	return res, nil
}
