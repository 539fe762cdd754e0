package passes

import (
	"fmt"
	"sort"
	"strconv"

	"dfg/internal/dataflow"
)

// This file is the batch scheduler's middle-end: MergeNetworks folds the
// sealed networks of several concurrently-requested expressions into one
// multi-root super-network and runs cross-expression CSE over it, so a
// subtree shared between members (the velocity magnitude inside two
// users' criteria) is planned and executed exactly once per batch.

// MergeMember is one expression entering a merge: its compile-cache
// fingerprint (the batch identity and demux key) and its sealed,
// already-optimised network.
type MergeMember struct {
	Fp  string
	Net *dataflow.Network
}

// Merged is a super-network produced by MergeNetworks. Fps holds the
// distinct member fingerprints in sorted order and Roots the matching
// sink node IDs — Roots[i] is where Fps[i]'s output lives after
// cross-expression CSE (two members whose outputs unified share a root).
// Shared counts the nodes the merge eliminated: duplicates that existed
// in more than one member and now execute once.
type Merged struct {
	Net    *dataflow.Network
	Fps    []string
	Roots  []string
	Shared int
}

// Root returns the super-network sink carrying the given member
// fingerprint's output.
func (m *Merged) Root(fp string) (string, bool) {
	for i, f := range m.Fps {
		if f == fp {
			return m.Roots[i], true
		}
	}
	return "", false
}

// rootAlias names the provenance alias for the i-th sorted member. The
// NUL prefix keeps it out of the identifier space, so it can never
// collide with a source name or user alias from any expression.
func rootAlias(i int) string { return "\x00batch-root:" + strconv.Itoa(i) }

// MergeNetworks clones every member's live nodes into one fresh network
// (sources unify by name — batch members bind the same mesh, so equal
// names mean equal arrays), declares one root per member, and runs the
// cross-expression elimination passes: constant pooling plus the
// order-sensitive CSE, with the commutativity-normalised CSE round added
// at LevelO2. Both are bitwise-safe, so the super-network's per-root
// outputs are zero-ULP identical to the members evaluated individually.
//
// Members are deduplicated and ordered by fingerprint before cloning, so
// one batch membership set always produces one deterministic
// super-network — the property the batch plan cache keys on.
func MergeNetworks(members []MergeMember, lvl Level, opt RunOptions) (*Merged, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("passes: merge needs at least one member")
	}
	distinct := make(map[string]*dataflow.Network, len(members))
	for _, m := range members {
		if m.Net == nil {
			return nil, fmt.Errorf("passes: merge member %q has no network", m.Fp)
		}
		if m.Net.Output() == "" {
			return nil, fmt.Errorf("passes: merge member %q has no output", m.Fp)
		}
		distinct[m.Fp] = m.Net
	}
	fps := make([]string, 0, len(distinct))
	for fp := range distinct {
		fps = append(fps, fp)
	}
	sort.Strings(fps)

	// Every member's sources are registered before any computed node is
	// cloned: the builder mints IDs around names already taken, so a
	// source spelled like a minted ID ("t0") is that source for every
	// member and never resolves to an earlier member's internal node.
	nw := dataflow.NewNetwork()
	orders := make([][]*dataflow.Node, len(fps))
	for i, fp := range fps {
		order, err := distinct[fp].TopoOrder()
		if err != nil {
			return nil, fmt.Errorf("passes: merge member %q: %w", fp, err)
		}
		orders[i] = order
		for _, n := range order {
			if n.Filter != "source" {
				continue
			}
			if _, err := nw.Source(n.ID); err != nil { // shared with earlier members
				return nil, fmt.Errorf("passes: merge member %q: %w", fp, err)
			}
		}
	}
	roots := make([]int32, len(fps))
	for i, fp := range fps {
		root, err := cloneInto(nw, distinct[fp], orders[i])
		if err != nil {
			return nil, fmt.Errorf("passes: merge member %q: %w", fp, err)
		}
		roots[i] = root
		if err := nw.AliasAt(rootAlias(i), root); err != nil {
			return nil, fmt.Errorf("passes: merge member %q: %w", fp, err)
		}
	}
	if err := nw.SetRootsAt(roots...); err != nil {
		return nil, err
	}

	pipe := mergePipeline(lvl)
	res, err := pipe.RunWith(nw, opt)
	if err != nil {
		return nil, err
	}

	// The passes remapped the provenance aliases along with everything
	// else; read each member's final root back out before sealing.
	ids := make([]string, len(fps))
	for i := range fps {
		n := nw.Node(rootAlias(i))
		if n == nil {
			return nil, fmt.Errorf("passes: merge lost root for member %q", fps[i])
		}
		ids[i] = n.ID
	}
	nw.Seal()
	return &Merged{Net: nw, Fps: fps, Roots: ids, Shared: res.NodesRemoved()}, nil
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
