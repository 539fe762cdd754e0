package passes

import (
	"fmt"

	"dfg/internal/dataflow"
)

// VerifyInvariants checks everything the later layers assume about a
// network between (and after) passes:
//
//   - the network's position index (Network.Pos) agrees with
//     construction order for every node;
//   - the output is set and resolves to a live node;
//   - every input reference resolves, and points strictly backwards in
//     construction order (construction order is a topological order —
//     strategies and vm.Lower walk it as is);
//   - every alias resolves to a node;
//   - filters, arities, widths and acyclicity hold (dataflow.Validate,
//     which also proves the output reachable via TopoOrder);
//   - reference counts conserve: the consumer counts strategies use for
//     buffer release sum to exactly edges + 1 (the output's sink ref).
//
// It runs after every pass when RunOptions.Verify is set, turning a
// subtly wrong rewrite into an immediate, attributed failure instead of
// a miscounted Table II three layers later.
func VerifyInvariants(nw *dataflow.Network) error {
	// The index comes first: every lookup below reads it.
	pos := make(map[string]int, nw.Len())
	for i, n := range nw.Nodes() {
		pos[n.ID] = i
		if p, ok := nw.Pos(n.ID); !ok || p != i {
			return fmt.Errorf("node %q (index %d) is indexed at %d (found %v)", n.ID, i, p, ok)
		}
	}
	out := nw.Output()
	if out == "" {
		return fmt.Errorf("network has no output")
	}
	if nw.NodeByID(out) == nil {
		return fmt.Errorf("output %q is not a node", out)
	}
	edges := 0
	for i, n := range nw.Nodes() {
		for _, in := range n.Inputs {
			j, ok := pos[in]
			if !ok {
				return fmt.Errorf("node %q reads missing node %q", n.ID, in)
			}
			if j >= i {
				return fmt.Errorf("node %q (index %d) reads %q (index %d): construction order is not topological", n.ID, i, in, j)
			}
			edges++
		}
	}
	for _, a := range nw.Aliases() {
		if nw.NodeByID(a[1]) == nil {
			return fmt.Errorf("alias %q points at missing node %q", a[0], a[1])
		}
	}
	roots := nw.Roots()
	for _, r := range roots {
		if nw.NodeByID(r) == nil {
			return fmt.Errorf("root %q is not a node", r)
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
