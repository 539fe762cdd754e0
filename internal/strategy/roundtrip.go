package strategy

import (
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
//
// The schedule's host slots are network positions. Per node in
// topological order it loads a source, fills a constant or picks a
// decompose's component on the host; for every other node it uploads
// the inputs into device slots 0, 1, ..., allocates the output in the
// next, launches, downloads the output and releases every slot. Only
// the launched nodes get a kernel.
func planRoundtrip(net *dataflow.Network) (Plan, error) {
	base, err := newPlanBase("roundtrip", net)
	if err != nil {
		return nil, err
	}
	nodes := net.Nodes()
	kernel := nodeKernels(nodes)
	size, slots, launches := 0, 0, 0
	for _, node := range base.order {
		switch node.Filter {
		case "source", "const", "decompose":
			size++
		default:
			size += 5
			slots = max(slots, len(node.Inputs)+1)
			launches++
		}
	}
	ops := make([]op, 0, size)
	kernels := make([]*ocl.Kernel, 0, launches)
	for _, node := range base.order {
		switch p := node.Pos(); node.Filter {
		case "source":
			ops = append(ops, op{code: opLoad, dst: p, label: p})
		case "const":
			ops = append(ops, op{code: opFill, dst: p, src: p, label: p})
		case "decompose":
			ops = append(ops, op{code: opPick, dst: p, src: node.Inputs[0], at: int32(node.Comp), label: p})
		default:
			k, err := kernel(node)
			if err != nil {
				return nil, err
			}
			out := int32(len(node.Inputs))
			ops = append(ops, op{code: opUpload, src: p, label: p},
				op{code: opAlloc, dst: out, width: int8(node.Width), label: p},
				op{code: opLaunch, src: int32(len(kernels)), count: out + 1, label: p},
				op{code: opDownload, dst: p, src: out, width: int8(node.Width), label: p},
				op{code: opRelease, count: out + 1})
			kernels = append(kernels, k)
		}
	}
	return &devicePlan{planBase: base, sched: schedule{ops: ops, args: firstSlots(slots), kernels: kernels,
		roots: net.Roots(), dev: int32(slots), host: int32(len(nodes))}}, nil
}
