package passes

import (
	"fmt"
	"slices"

	"dfg/internal/dataflow"
)

// This file is the batch scheduler's middle-end: MergeNetworks folds the
// sealed networks of several concurrently-requested expressions into one
// multi-root super-network and runs cross-expression CSE over it, so a
// subtree shared between members (the velocity magnitude inside two
// users' criteria) is planned and executed exactly once per batch.

// Merged is a super-network produced by MergeNetworks. Root[i] is the
// index in Net.Roots() of the i-th member's output: two members whose
// outputs unified under cross-expression CSE share one root. Shared
// counts the nodes the merge eliminated: duplicates that existed in more
// than one member and now execute once.
type Merged struct {
	Net    *dataflow.Network
	Root   []int
	Shared int
}

// MergeNetworks clones every member's live nodes, in the order given,
// into one fresh network (sources unify by name — batch members bind
// the same mesh, so equal names mean equal arrays), declares one root
// per member, and runs the cross-expression elimination passes: constant
// pooling plus the order-sensitive CSE, with the commutativity-normalised
// CSE round added at LevelO2. Both are bitwise-safe, so the
// super-network's per-root outputs are zero-ULP identical to the members
// evaluated individually. The passes move each member's root by
// position; the last step collapses the roots that unified. One member
// list always produces one super-network, so a caller that keys the
// result orders the members first.
func MergeNetworks(nets []*dataflow.Network, lvl Level, opt RunOptions) (*Merged, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("passes: merge needs at least one member")
	}
	// Every member's sources are registered before any computed node is
	// cloned: the builder mints IDs around names already taken, so a
	// source spelled like a minted ID ("t0") is that source for every
	// member and never resolves to an earlier member's internal node.
	nw := dataflow.NewNetwork()
	orders := make([][]*dataflow.Node, len(nets))
	for i, net := range nets {
		order, err := net.TopoOrder()
		if err != nil {
			return nil, fmt.Errorf("passes: merge member %d: %w", i, err)
		}
		orders[i] = order
		for _, n := range order {
			if n.Filter != "source" {
				continue
			}
			if _, err := nw.Source(n.ID); err != nil { // shared with earlier members
				return nil, fmt.Errorf("passes: merge member %d: %w", i, err)
			}
		}
	}
	roots := make([]int32, len(nets))
	for i, net := range nets {
		root, err := cloneInto(nw, net, orders[i])
		if err != nil {
			return nil, fmt.Errorf("passes: merge member %d: %w", i, err)
		}
		roots[i] = root
	}
	if err := nw.SetRootsAt(roots...); err != nil {
		return nil, err
	}
	res, err := mergePipeline(lvl).RunWith(nw, opt)
	if err != nil {
		return nil, err
	}

	// Collapse the roots that unified, keeping first occurrences in
	// member order.
	m := &Merged{Net: nw, Root: make([]int, len(nets)), Shared: res.NodesRemoved()}
	roots = roots[:0]
	for i, r := range nw.Roots() {
		k := slices.Index(roots, r)
		if k < 0 {
			k, roots = len(roots), append(roots, r)
		}
		m.Root[i] = k
	}
	if err := nw.SetRootsAt(roots...); err != nil {
		return nil, err
	}
	nw.Seal()
	return m, nil
}

// mergePaper and mergeO2 are the cross-expression pipelines, built from
// the exact same ElimPasses list the solo pipelines canonicalise with —
// a node that unifies solo unifies identically in a batch. Members
// arrive individually optimised, so any node these eliminate was
// duplicated across members — exactly what Merged.Shared reports.
var (
	mergePaper = New("merge", ElimPasses(LevelPaper)...)
	mergeO2    = New("merge-O2", ElimPasses(LevelO2)...)
)

func mergePipeline(lvl Level) *Pipeline {
	if lvl == LevelO2 {
		return mergeO2
	}
	return mergePaper
}

// cloneInto copies one member's nodes (order is src's live nodes in
// topological order) into dst by position — sources are already there
// under their own names — and returns the position dst gave the
// member's output node.
func cloneInto(dst, src *dataflow.Network, order []*dataflow.Node) (int32, error) {
	at := make([]int32, src.Len()) // src position -> dst position
	for _, n := range order {
		var (
			p   int32
			err error
		)
		switch n.Filter {
		case "source":
			p, err = dst.Source(n.ID)
		case "const":
			p = dst.AddConstAt(n.Value)
		case "decompose":
			p, err = dst.AddDecomposeAt(at[n.Inputs[0]], n.Comp)
		default:
			var buf [maxArity]int32
			ins := buf[:len(n.Inputs)]
			for i, in := range n.Inputs {
				ins[i] = at[in]
			}
			p, err = dst.AddFilterAt(n.Prim(), ins...)
		}
		if err != nil {
			return 0, err
		}
		at[n.Pos()] = p
	}
	return at[src.Roots()[0]], nil
}
