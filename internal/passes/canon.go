package passes

import "dfg/internal/dataflow"

// This file holds the one canonicalisation helper every elimination
// path shares. The solo pipelines (Paper/O2 via CSE/CSECommute) and the
// batch merge pipelines (MergeNetworks) all key nodes through
// CanonicalKey and build their front ends from ElimPasses, so a node
// that unifies on the solo path unifies identically on the batch path.

// commutative lists the primitives whose results are bitwise identical
// under argument swap for every input, including NaNs and signed zeros.
// fmin/fmax are excluded: their NaN and signed-zero behaviour is
// argument-order dependent.
var commutative = map[string]bool{"add": true, "mul": true, "eq": true, "ne": true}

// CanonicalKey returns a node's structural identity for elimination
// passes: its Key() — filter, parameters and inputs in order — with two
// normalisations layered on top. Sources are pinned to their names (two
// sources never merge across names, whatever their structure), and when
// commute is set the argument order of bitwise-commutative two-input
// primitives is sorted, so add(a, b) and add(b, a) share one key.
func CanonicalKey(n *dataflow.Node, commute bool) string {
	if n.Filter == "source" {
		return "source:" + n.ID
	}
	if commute && commutative[n.Filter] && len(n.Inputs) == 2 && n.Inputs[1] < n.Inputs[0] {
		return n.Filter + "|" + n.Inputs[1] + "|" + n.Inputs[0]
	}
	return n.Key()
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
