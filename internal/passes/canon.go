package passes

import (
	"fmt"
	"math"

	"dfg/internal/dataflow"
)

// This file holds the one structural key every elimination path shares.
// The solo pipelines (Paper/O2 via CSE and CSECommute) and the batch
// merge pipelines (MergeNetworks) all merge nodes through eliminate
// (ConstPool keys constants on the same bits) and build their front ends
// from ElimPasses, so a node that unifies on the solo path unifies
// identically on the batch path.

// commutative reports whether the primitive's result is bitwise
// identical under argument swap for every input, including NaNs and
// signed zeros. fmin/fmax are excluded: their NaN and signed-zero
// behaviour is argument-order dependent.
func commutative(filter string) bool {
	switch filter {
	case "add", "mul", "eq", "ne":
		return true
	}
	return false
}

// maxArity is the most inputs a filter takes (grad3d and its single-axis
// forms: field, dims, x, y, z).
const maxArity = 5

// eliminate merges every node into the first node with the same
// filter, parameters and inputs in order. A constant's parameter is the
// bits of its value, so +0 and -0, and NaNs of different payload, stay
// apart; a decompose's is its component. Sources are pinned to their
// own positions (two sources never merge across names), and with
// commute the argument order of bitwise-commutative two-input
// primitives is sorted, so add(a, b) and add(b, a) merge.
//
// No map: the first occurrences are chained in one flat []int32 behind
// their first canonical input (constants behind their bits modulo the
// node count), and a node is compared only with its chain. The chains
// live behind the run's positions (chainRoom), so a pass allocates none.
func eliminate(nw *dataflow.Network, st *Stats, commute bool) error {
	nodes := nw.Nodes()
	n := int32(len(nodes))
	to := keepAll(nw, st)               // position -> position it merged into
	chain := st.to[n:chainRoom(int(n))] // heads by input, heads by constant bucket, next
	head, next := chain[:2*n+1], chain[2*n+1:]
	for i := range head {
		head[i] = -1
	}
	for i, nd := range nodes {
		if nd.Filter == "source" {
			continue
		}
		// Inputs precede their node, so by the time a node is keyed all
		// of its inputs are already canonical and one forward pass
		// reaches the fixpoint.
		for _, in := range nd.Inputs {
			if in < 0 || int(in) >= i {
				return fmt.Errorf("node %q reads position %d, which does not precede it", nd.ID, in)
			}
		}
		ins := canonical(nd, to, commute)
		h := n + int32(math.Float64bits(nd.Value)%uint64(n+1))
		if len(nd.Inputs) > 0 {
			h = ins[0]
		}
		j := head[h]
		for j >= 0 && !(nodes[j].Prim() == nd.Prim() && math.Float64bits(nodes[j].Value) == math.Float64bits(nd.Value) &&
			nodes[j].Comp == nd.Comp && len(nodes[j].Inputs) == len(nd.Inputs) && canonical(nodes[j], to, commute) == ins) {
			j = next[j]
		}
		if j >= 0 {
			to[i] = j
			continue
		}
		head[h], next[i] = int32(i), head[h]
	}
	return compact(nw, st, to)
}

// canonical returns nd's inputs as the positions they merged into, the
// two of a commutative primitive sorted with commute.
func canonical(nd *dataflow.Node, to []int32, commute bool) (ins [maxArity]int32) {
	for a, in := range nd.Inputs {
		ins[a] = to[in]
	}
	if commute && len(nd.Inputs) == 2 && ins[1] < ins[0] && commutative(nd.Filter) {
		ins[0], ins[1] = ins[1], ins[0]
	}
	return ins
}

// ElimPasses returns the canonicalisation pass list a level runs before
// any rewriting: constant pooling plus the order-sensitive CSE, with the
// commutativity-normalised round added at LevelO2. The front of the solo
// pipelines and the whole of the merge pipelines are built from this one
// list.
func ElimPasses(lvl Level) []Pass {
	if lvl == LevelO2 {
		return []Pass{ConstPool(), CSE(), CSECommute()}
	}
	return []Pass{ConstPool(), CSE()}
}
