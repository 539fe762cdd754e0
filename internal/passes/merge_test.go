package passes_test

import (
	"slices"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/passes"
)

// compileMember compiles one expression at the given level.
func compileMember(t *testing.T, text string, lvl passes.Level) *dataflow.Network {
	t.Helper()
	pipe := passes.Paper
	if lvl == passes.LevelO2 {
		pipe = passes.O2
	}
	net, _, err := expr.CompileWithPipeline(text, nil, pipe, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatalf("compile %q: %v", text, err)
	}
	return net
}

func liveNodes(t *testing.T, nw *dataflow.Network) int {
	t.Helper()
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	return len(order)
}

// root returns the node carrying member i's output.
func root(m *passes.Merged, i int) *dataflow.Node {
	return m.Net.Nodes()[m.Net.Roots()[m.Root[i]]]
}

// TestMergeNetworksBatchSharesSubtrees: merging expressions with a
// common subtree eliminates the duplicated nodes — the super-network is
// strictly smaller than its members combined, members keep distinct
// roots, and Shared reports the elimination.
func TestMergeNetworksBatchSharesSubtrees(t *testing.T) {
	a := compileMember(t, "r = sqrt(u*u + v*v + w*w)", passes.LevelO2)
	b := compileMember(t, "r = u*u + v*v + w*w", passes.LevelO2)
	m, err := passes.MergeNetworks([]*dataflow.Network{a, b}, passes.LevelO2, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Root) != 2 || len(m.Net.Roots()) != 2 {
		t.Fatalf("members=%d roots=%d, want 2/2", len(m.Root), len(m.Net.Roots()))
	}
	if m.Root[0] != 0 || m.Root[1] != 1 {
		t.Fatalf("distinct members root at %v, want [0 1]", m.Root)
	}
	if root(m, 0).Filter != "sqrt" || root(m, 1).Filter != "add" {
		t.Fatalf("members root at %s and %s, want sqrt and add", root(m, 0).Filter, root(m, 1).Filter)
	}
	if m.Shared == 0 {
		t.Fatal("no nodes shared between members with a common subtree")
	}
	if got, limit := liveNodes(t, m.Net), liveNodes(t, a)+liveNodes(t, b); got >= limit {
		t.Fatalf("super-network has %d nodes, members total %d — merge eliminated nothing", got, limit)
	}
}

// TestMergeNetworksBatchUnifiesEquivalentRoots: members whose outputs
// normalise to the same node (commuted operands at O2) share one root,
// and so does a member given twice: the roots collapse to one, which
// both members index.
func TestMergeNetworksBatchUnifiesEquivalentRoots(t *testing.T) {
	a := compileMember(t, "r = u * v", passes.LevelO2)
	b := compileMember(t, "r = v * u", passes.LevelO2)
	c := compileMember(t, "r = u - v", passes.LevelO2)
	m, err := passes.MergeNetworks([]*dataflow.Network{c, a, b, c}, passes.LevelO2, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 1, 0}; !slices.Equal(m.Root, want) || len(m.Net.Roots()) != 2 {
		t.Fatalf("members root at %v of %d roots, want %v of 2", m.Root, len(m.Net.Roots()), want)
	}
}

// TestMergeNetworksKeepsSourcesNamedLikeMintedIDs: a member's source
// spelled "t0" or "t1" stays a source in the super-network whichever
// member is cloned first — it never resolves to a node another member's
// clone minted under that name.
func TestMergeNetworksKeepsSourcesNamedLikeMintedIDs(t *testing.T) {
	for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
		sum := compileMember(t, "r = u + v", lvl) // solo: add is t0
		src := compileMember(t, "t0", lvl)
		late := compileMember(t, "r = (u * v) - t1", lvl) // solo: mul is t0, sub skips to t2
		m, err := passes.MergeNetworks([]*dataflow.Network{sum, src, late}, lvl, passes.RunOptions{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"t0", "t1"} {
			if n := m.Net.NodeByID(name); n == nil || n.Filter != "source" {
				t.Fatalf("%v: %q in the super-network is %+v, want a source", lvl, name, n)
			}
		}
		if id := root(m, 1).ID; id != "t0" {
			t.Fatalf("%v: member \"t0\" roots at %q, want its source", lvl, id)
		}
		if f := root(m, 0).Filter; f != "add" {
			t.Fatalf("%v: member \"r = u + v\" roots at a %s node", lvl, f)
		}
		if f := root(m, 2).Filter; f != "sub" {
			t.Fatalf("%v: member \"r = (u * v) - t1\" roots at a %s node", lvl, f)
		}
	}
}
