package strategy

import (
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
// The schedule's device slots are network positions. It binds every
// live source in topological order, then per computed node allocates
// its output, launches its kernel and releases each input whose last
// consumer that was; last, it downloads each root into a host slot and
// releases it. The refcount runs here, at plan time.
func planStaged(net *dataflow.Network) (Plan, error) {
	base, err := newPlanBase("staged", net)
	if err != nil {
		return nil, err
	}
	nodes, roots := net.Nodes(), net.Roots()
	kernel := nodeKernels(nodes)
	refs := make([]int32, len(nodes))
	nargs, launches := 0, 0
	for _, node := range base.order {
		for _, in := range node.Inputs {
			refs[in]++
		}
		if node.Filter != "source" {
			nargs += len(node.Inputs) + 1
			launches++
		}
	}
	for _, r := range roots {
		refs[r]++ // one sink reference per root
	}
	// Each node is bound or allocated, launched, downloaded and released
	// at most once.
	ops := make([]op, 0, 3*len(base.order)+len(roots))
	args := make([]int32, 0, nargs)
	kernels := make([]*ocl.Kernel, 0, launches)
	release := func(p int32) {
		if refs[p]--; refs[p] == 0 {
			ops = append(ops, op{code: opRelease, src: p, count: 1})
		}
	}
	var need int32 // needs lists the live sources in topological order
	for _, node := range base.order {
		if node.Filter == "source" {
			ops = append(ops, op{code: opBind, dst: node.Pos(), src: need, label: node.Pos()})
			need++
		}
	}
	for _, node := range base.order {
		if node.Filter == "source" {
			continue
		}
		k, err := kernel(node)
		if err != nil {
			return nil, err
		}
		at, p := int32(len(args)), node.Pos()
		args = append(append(args, node.Inputs...), p)
		ops = append(ops, op{code: opAlloc, dst: p, width: int8(node.Width), label: p},
			op{code: opLaunch, src: int32(len(kernels)), at: at, count: int32(len(node.Inputs) + 1), label: p})
		kernels = append(kernels, k)
		for _, in := range node.Inputs {
			release(in)
		}
	}
	// A root's sink reference drains only after its download, so shared
	// roots survive. Roots are distinct nodes (the network collapses a
	// merged pair), so each buffer is downloaded once and can hand its
	// storage over.
	for i, r := range roots {
		ops = append(ops, op{code: opDownload, dst: int32(i), src: r, width: int8(nodes[r].Width), label: r})
		release(r)
	}
	return &devicePlan{planBase: base, sched: schedule{ops: ops, args: args, kernels: kernels,
		roots: firstSlots(len(roots)), dev: int32(len(nodes)), host: int32(len(roots))}}, nil
}
