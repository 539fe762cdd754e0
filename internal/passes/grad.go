package passes

import "dfg/internal/dataflow"

// ForwardDecompose returns the gradient-forwarding pass: every
// decompose(grad3d(...), axis) is rewritten in place into the
// single-axis stencil grad3dx/y/z over the gradient's own inputs, and
// the unused fourth lane (grad3d pads its float4 with exactly 0.0f)
// becomes a constant zero. The wide grad3d node itself is left behind
// for DCE, which removes it when no consumer still needs the full
// vector.
//
// The per-axis kernels run the identical difference arithmetic as the
// corresponding lane of grad3d (internal/kernels shares the helper), so
// the rewrite is bit-exact — and it is what lets the fusion strategy
// keep a lone gradient component in registers instead of materialising
// a float4 buffer.
func ForwardDecompose() Pass { return forwardDecompose{} }

type forwardDecompose struct{}

func (forwardDecompose) Name() string { return "decompose-forward" }

// axisFilter maps a gradient component to its single-axis stencil.
var axisFilter = [3]string{"grad3dx", "grad3dy", "grad3dz"}

func (forwardDecompose) Run(nw *dataflow.Network, st *Stats) error {
	nodes := nw.Nodes()
	for i, n := range nodes {
		if n.Filter != "decompose" || nodes[n.Inputs[0]].Filter != "grad3d" {
			continue
		}
		if n.Comp >= 0 && n.Comp < 3 {
			if err := nw.RewriteToFilter(int32(i), axisFilter[n.Comp], nodes[n.Inputs[0]].Inputs, 0); err != nil {
				return err
			}
		} else {
			// Lane 3 of the float4 gradient is the 0.0f pad.
			nw.RewriteToConst(int32(i), 0)
		}
		st.Rewritten++
	}
	return nil
}
