package passes

import (
	"fmt"

	"dfg/internal/dataflow"
)

// VerifyInvariants checks everything the later layers assume about a
// network between (and after) passes:
//
//   - every node's Pos, and the name index (NodeByID), agree with
//     construction order;
//   - at least one root is set, and every root is a node;
//   - every input position is in range and strictly earlier than its
//     node (construction order is a topological order — strategies and
//     vm.Lower walk it as is);
//   - every alias resolves to a node;
//   - filters, arities, widths and acyclicity hold (dataflow.Validate,
//     which also proves the output reachable via TopoOrder);
//   - reference counts conserve: the consumer counts strategies use for
//     buffer release sum to exactly edges + one per root.
//
// It runs after every pass when RunOptions.Verify is set, turning a
// subtly wrong rewrite into an immediate, attributed failure instead of
// a miscounted Table II three layers later.
func VerifyInvariants(nw *dataflow.Network) error {
	nodes := nw.Nodes()
	for i, n := range nodes {
		if n.Pos() != int32(i) || nw.NodeByID(n.ID) != n {
			return fmt.Errorf("node %q (index %d) is indexed at %d", n.ID, i, n.Pos())
		}
	}
	roots := nw.Roots()
	if len(roots) == 0 {
		return fmt.Errorf("network has no output")
	}
	for _, r := range roots {
		if r < 0 || int(r) >= len(nodes) {
			return fmt.Errorf("root position %d is not a node", r)
		}
	}
	edges := 0
	for i, n := range nodes {
		for _, in := range n.Inputs {
			if in < 0 || int(in) >= len(nodes) {
				return fmt.Errorf("node %q reads missing position %d", n.ID, in)
			}
			if int(in) >= i {
				return fmt.Errorf("node %q (index %d) reads %q (index %d): construction order is not topological", n.ID, i, nodes[in].ID, in)
			}
			edges++
		}
	}
	for _, a := range nw.Aliases() {
		if nw.NodeByID(a[1]) == nil {
			return fmt.Errorf("alias %q points at missing node %q", a[0], a[1])
		}
	}
	if err := nw.Validate(); err != nil {
		return err
	}
	total := 0
	for _, c := range nw.Consumers() {
		total += c
	}
	if total != edges+len(roots) {
		return fmt.Errorf("reference counts not conserved: %d consumer refs for %d edges (+%d roots)", total, edges, len(roots))
	}
	return nil
}
