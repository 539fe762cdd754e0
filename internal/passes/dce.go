package passes

import "dfg/internal/dataflow"

// DCE returns the dead-node elimination pass: every node that cannot
// reach the network output is removed. Rewrite passes only redirect
// references, so they strand their leftovers (a forwarded gradient, a
// folded constant's operands) for this pass to collect. Aliases bound
// to a dead node are dropped with it.
//
// The Paper pipeline deliberately omits DCE: the paper's parser never
// creates unreachable nodes, and keeping the pipeline to exactly its
// two optimisations is what the byte-identity guarantee rests on.
func DCE() Pass { return dce{} }

type dce struct{}

func (dce) Name() string { return "dce" }

func (dce) Run(nw *dataflow.Network, st *Stats) error {
	nodes := nw.Nodes()
	live := make([]bool, len(nodes)) // by position
	var visit func(id string)
	visit = func(id string) {
		i, ok := nw.Pos(id)
		if !ok || live[i] {
			return
		}
		live[i] = true
		for _, in := range nodes[i].Inputs {
			visit(in)
		}
	}
	for _, r := range nw.Roots() {
		visit(r)
	}
	var dead []string
	for i, n := range nodes {
		if !live[i] {
			dead = append(dead, n.ID)
		}
	}
	if len(dead) == 0 {
		return nil
	}
	if err := nw.RemoveNodes(dead); err != nil {
		return err
	}
	st.Removed = append(st.Removed, dead...)
	return nil
}
