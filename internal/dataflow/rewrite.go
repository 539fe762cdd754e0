package dataflow

import "fmt"

// This file is the network's rewrite surface: the primitive mutations an
// optimisation pass (internal/passes) composes into whole-network
// transformations. Everything here obeys the same mutability discipline
// as the builder API — rewriting a sealed network panics — and leaves
// the network in a state where construction order is still a valid
// topological order, which every later layer (strategies, codegen)
// relies on.

// ApplyRemap redirects every reference — node inputs, the output, and
// user aliases — through subst, chasing chains (a->b, b->c) to their
// final target. Nodes themselves are not removed; pair with RemoveNodes.
// A cyclic substitution panics (it is a programming error in the pass).
func (nw *Network) ApplyRemap(subst map[string]string) {
	nw.mustMutable("ApplyRemap")
	if len(subst) == 0 {
		return
	}
	resolve := func(id string) string {
		for hops := 0; ; hops++ {
			r, ok := subst[id]
			if !ok {
				return id
			}
			if hops > len(subst) {
				panic("dataflow: ApplyRemap substitution cycle at " + id)
			}
			id = r
		}
	}
	for _, n := range nw.nodes {
		for i, in := range n.Inputs {
			n.Inputs[i] = resolve(in)
		}
	}
	if nw.output != "" {
		nw.output = resolve(nw.output)
	}
	if len(nw.roots) > 0 {
		// Remap the root set, collapsing roots a rewrite merged into one
		// node (cross-expression CSE can unify two members' outputs).
		kept := nw.roots[:0]
		seen := make(map[string]bool, len(nw.roots))
		for _, r := range nw.roots {
			r = resolve(r)
			if !seen[r] {
				seen[r] = true
				kept = append(kept, r)
			}
		}
		nw.roots = kept
		nw.output = kept[0]
	}
	for name, id := range nw.aliases {
		nw.aliases[name] = resolve(id)
	}
}

// RemoveNodes deletes the identified nodes, preserving the construction
// order of the survivors. References to a removed node must have been
// redirected first (ApplyRemap) — except aliases, which are dropped when
// they still point at a removed node. Removing the output is an error.
func (nw *Network) RemoveNodes(ids []string) error {
	nw.mustMutable("RemoveNodes")
	if len(ids) == 0 {
		return nil
	}
	dead := make([]bool, len(nw.nodes)) // by position
	for _, id := range ids {
		if i, ok := nw.byID[id]; ok {
			dead[i] = true
		}
	}
	isDead := func(id string) bool {
		i, ok := nw.byID[id]
		return ok && dead[i]
	}
	if isDead(nw.output) {
		return fmt.Errorf("dataflow: cannot remove output node %q", nw.output)
	}
	for _, r := range nw.roots {
		if isDead(r) {
			return fmt.Errorf("dataflow: cannot remove root node %q", r)
		}
	}
	for name, id := range nw.aliases {
		if isDead(id) {
			delete(nw.aliases, name)
		}
	}
	// Compact the survivors and reindex: a survivor's position moves
	// down by the number of dead nodes before it.
	kept := nw.nodes[:0]
	for i, n := range nw.nodes {
		if dead[i] {
			delete(nw.byID, n.ID)
			continue
		}
		nw.byID[n.ID] = int32(len(kept))
		kept = append(kept, n)
	}
	nw.nodes = kept
	return nil
}

// RewriteToConst mutates the identified node in place into a scalar
// constant, keeping its ID and position (and therefore the topological
// order of everything downstream).
func (nw *Network) RewriteToConst(id string, v float64) error {
	nw.mustMutable("RewriteToConst")
	n := nw.NodeByID(id)
	if n == nil {
		return fmt.Errorf("dataflow: RewriteToConst: unknown node %q", id)
	}
	n.Filter = "const"
	n.Value = v
	n.Inputs = nil
	n.Comp = 0
	n.Width = 1
	return nil
}

// RewriteToFilter mutates the identified node in place into an
// invocation of filter over inputs (node IDs, not aliases), keeping its
// ID and position. The caller must ensure every input node precedes the
// rewritten node in construction order — in-place rewrites may only
// point backwards, or the order stops being topological (the debug
// invariant checks in internal/passes catch violations).
func (nw *Network) RewriteToFilter(id, filter string, inputs []string, comp int) error {
	nw.mustMutable("RewriteToFilter")
	n := nw.NodeByID(id)
	if n == nil {
		return fmt.Errorf("dataflow: RewriteToFilter: unknown node %q", id)
	}
	fi, ok := Lookup(filter)
	if !ok {
		return fmt.Errorf("dataflow: RewriteToFilter: unknown filter %q", filter)
	}
	if len(inputs) != fi.Arity {
		return fmt.Errorf("dataflow: RewriteToFilter: filter %q takes %d inputs, got %d", filter, fi.Arity, len(inputs))
	}
	for _, in := range inputs {
		if _, ok := nw.Pos(in); !ok {
			return fmt.Errorf("dataflow: RewriteToFilter: missing input %q", in)
		}
	}
	n.Filter = filter
	n.Inputs = nw.window(len(inputs))
	copy(n.Inputs, inputs)
	n.Value = 0
	n.Comp = comp
	n.Width = fi.OutWidth
	return nil
}
