package passes

import "dfg/internal/dataflow"

// DCE returns the dead-node elimination pass: every node that cannot
// reach a root is removed. Rewrite passes only redirect references, so
// they strand their leftovers (a forwarded gradient, a folded constant's
// operands) for this pass to collect. Aliases bound to a dead node are
// dropped with it.
//
// The Paper pipeline deliberately omits DCE: the paper's parser never
// creates unreachable nodes, and keeping the pipeline to exactly its
// two optimisations is what the byte-identity guarantee rests on.
func DCE() Pass { return dce{} }

type dce struct{}

func (dce) Name() string { return "dce" }

// Run marks the live nodes in one backward sweep — inputs precede their
// node, so a node's liveness is settled before its inputs are visited —
// and deletes the rest.
func (dce) Run(nw *dataflow.Network, st *Stats) error {
	nodes := nw.Nodes()
	to := positions(nw, st)
	for i := range to {
		to[i] = -1
	}
	for _, r := range nw.Roots() {
		to[r] = r
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		if to[i] >= 0 {
			for _, in := range nodes[i].Inputs {
				to[in] = in
			}
		}
	}
	return compact(nw, st, to)
}
