package passes

import (
	"fmt"
	"math"
	"unsafe"

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

// key is a node's structural identity: two nodes with equal keys compute
// identical values. A constant is keyed by the bits of its value, so +0
// and -0, and NaNs of different payload, stay apart; an input is keyed by
// the position of the node it reads. The filter is keyed by the address
// of its name's bytes in its registry row: every node's Info copies its
// filter's one row, so the nodes of a filter share those bytes, and a
// probe hashes no string.
type key struct {
	filter *byte
	param  uint64 // a const's math.Float64bits, a decompose's component
	in     [maxArity]int32
}

// eliminate merges every node into the first node with the same key:
// filter, parameters and inputs in order. Sources are pinned to their own
// positions (two sources never merge across names), and with commute the
// argument order of bitwise-commutative two-input primitives is sorted,
// so add(a, b) and add(b, a) share one key.
func eliminate(nw *dataflow.Network, st *Stats, commute bool) error {
	nodes := nw.Nodes()
	to := keepAll(nw) // position -> position it merged into
	first := make(map[key]int32, len(nodes))
	for i, n := range nodes {
		k := key{filter: unsafe.StringData(n.Info().Name)}
		switch n.Filter {
		case "source":
			k.in[0] = int32(i)
		case "const":
			k.param = math.Float64bits(n.Value)
		case "decompose":
			k.param = uint64(n.Comp)
		}
		// Inputs precede their node, so by the time a node is keyed all
		// of its inputs are already canonical and one forward pass
		// reaches the fixpoint.
		for a, in := range n.Inputs {
			if in < 0 || int(in) >= i {
				return fmt.Errorf("node %q reads position %d, which does not precede it", n.ID, in)
			}
			k.in[a] = to[in]
		}
		if commute && len(n.Inputs) == 2 && k.in[1] < k.in[0] && commutative(n.Filter) {
			k.in[0], k.in[1] = k.in[1], k.in[0]
		}
		if j, ok := first[k]; ok {
			to[i] = j
			continue
		}
		first[k] = int32(i)
	}
	return compact(nw, st, to)
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
