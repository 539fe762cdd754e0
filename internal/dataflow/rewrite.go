package dataflow

import "fmt"

// This file is the network's rewrite surface: the primitive mutations an
// optimisation pass (internal/passes) composes into whole-network
// transformations. Everything here obeys the same mutability discipline
// as the builder API — rewriting a sealed network panics — and leaves
// the network in a state where construction order is still a valid
// topological order, which every later layer (strategies, codegen)
// relies on.

// Compact merges and deletes nodes in one pass over the network. to[i]
// says what becomes of the node at position i: to[i] == i keeps it, an
// earlier position merges it into that node (every reference to it —
// inputs, roots, aliases — moves there, chains included; two roots
// merged into one node stay two roots), and -1 deletes it, dropping its
// name and the aliases still bound to it. Survivors keep their
// construction order. Compact overwrites to with each old
// position's new one (-1 for a deleted node). Deleting a root, or a node
// a survivor reads, is an error; the network must then be discarded.
func (nw *Network) Compact(to []int32) error {
	nw.mustMutable("Compact")
	if len(to) != len(nw.nodes) {
		return fmt.Errorf("dataflow: Compact: %d targets for %d nodes", len(to), len(nw.nodes))
	}
	for _, r := range nw.roots {
		if to[r] < 0 {
			return fmt.Errorf("dataflow: cannot remove root node %q", nw.nodes[r].ID)
		}
	}
	kept := nw.nodes[:0]
	for i, n := range nw.nodes {
		switch t := to[i]; {
		case t == int32(i):
			to[i] = int32(len(kept))
			n.pos = to[i]
			kept = append(kept, n)
		case t >= 0 && t < int32(i):
			to[i] = to[t] // t precedes i, so it already holds its new position
		case t != -1:
			return fmt.Errorf("dataflow: Compact: node %q merges forward into position %d", n.ID, t)
		}
	}
	for _, n := range kept {
		for a, in := range n.Inputs {
			if n.Inputs[a] = to[in]; n.Inputs[a] < 0 {
				return fmt.Errorf("dataflow: Compact: node %q reads deleted position %d", n.ID, in)
			}
		}
	}
	for i, r := range nw.roots {
		nw.roots[i] = to[r]
	}
	for s, p := range nw.pos {
		if p >= 0 {
			nw.pos[s] = to[p]
		}
	}
	nw.nodes = kept
	return nil
}

// RewriteToConst mutates the node at position p in place into a scalar
// constant, keeping its ID and position (and therefore the topological
// order of everything downstream).
func (nw *Network) RewriteToConst(p int32, v float64) {
	nw.mustMutable("RewriteToConst")
	n := nw.nodes[p]
	n.Filter, n.info = "const", constRow
	n.Value = v
	n.Inputs = nil
	n.Comp = 0
	n.Width = 1
}

// RewriteToFilter mutates the node at position p in place into an
// invocation of filter over inputs (positions), keeping its ID and
// position. Every input must precede the rewritten node — in-place
// rewrites may only point backwards, or construction order stops being
// topological.
func (nw *Network) RewriteToFilter(p int32, filter string, inputs []int32, comp int) error {
	nw.mustMutable("RewriteToFilter")
	n := nw.nodes[p]
	fi, ok := registry[filter]
	if !ok {
		return fmt.Errorf("dataflow: RewriteToFilter: unknown filter %q", filter)
	}
	if len(inputs) != fi.Arity {
		return fmt.Errorf("dataflow: RewriteToFilter: filter %q takes %d inputs, got %d", filter, fi.Arity, len(inputs))
	}
	for _, in := range inputs {
		if in < 0 || in >= p {
			return fmt.Errorf("dataflow: RewriteToFilter: input %d does not precede node %q", in, n.ID)
		}
	}
	n.Filter, n.info = fi.Name, fi
	n.Inputs = nw.window(len(inputs))
	copy(n.Inputs, inputs)
	n.Value = 0
	n.Comp = comp
	n.Width = fi.OutWidth
	return nil
}
