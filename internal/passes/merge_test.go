package passes_test

import (
	"bytes"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/passes"
)

// compileMember compiles one expression at the given level and wraps it
// as a merge member.
func compileMember(t *testing.T, text string, lvl passes.Level) passes.MergeMember {
	t.Helper()
	pipe := passes.Paper
	if lvl == passes.LevelO2 {
		pipe = passes.O2
	}
	net, _, err := expr.CompileWithPipeline(text, nil, pipe, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatalf("compile %q: %v", text, err)
	}
	// The fingerprint is an opaque dedup/demux key at this layer; the
	// source text serves.
	return passes.MergeMember{Fp: text, Net: net}
}

func liveNodes(t *testing.T, nw *dataflow.Network) int {
	t.Helper()
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	return len(order)
}

// TestMergeNetworksBatchSharesSubtrees: merging expressions with a
// common subtree eliminates the duplicated nodes — the super-network is
// strictly smaller than its members combined, members keep distinct
// roots, and Shared reports the elimination.
func TestMergeNetworksBatchSharesSubtrees(t *testing.T) {
	a := compileMember(t, "r = sqrt(u*u + v*v + w*w)", passes.LevelO2)
	b := compileMember(t, "r = u*u + v*v + w*w", passes.LevelO2)
	m, err := passes.MergeNetworks([]passes.MergeMember{a, b}, passes.LevelO2, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fps) != 2 || len(m.Roots) != 2 {
		t.Fatalf("fps=%d roots=%d, want 2/2", len(m.Fps), len(m.Roots))
	}
	if m.Roots[0] == m.Roots[1] {
		t.Fatal("distinct members unified to one root")
	}
	if m.Shared == 0 {
		t.Fatal("no nodes shared between members with a common subtree")
	}
	if got, limit := liveNodes(t, m.Net), liveNodes(t, a.Net)+liveNodes(t, b.Net); got >= limit {
		t.Fatalf("super-network has %d nodes, members total %d — merge eliminated nothing", got, limit)
	}
	for _, fp := range m.Fps {
		root, ok := m.Root(fp)
		if !ok || m.Net.NodeByID(root) == nil {
			t.Fatalf("member %q root %q missing from super-network", fp, root)
		}
	}
}

// TestMergeNetworksBatchDeterministic: member order must not matter —
// one membership set, one super-network, byte for byte. The batch plan
// cache keys on this.
func TestMergeNetworksBatchDeterministic(t *testing.T) {
	a := compileMember(t, "r = sqrt(u*u + v*v)", passes.LevelO2)
	b := compileMember(t, "r = (u*u + v*v) * 0.5", passes.LevelO2)
	fwd, err := passes.MergeNetworks([]passes.MergeMember{a, b}, passes.LevelO2, passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := passes.MergeNetworks([]passes.MergeMember{b, a}, passes.LevelO2, passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, fwd.Net), marshal(t, rev.Net)) {
		t.Fatal("merge is order-sensitive: same members, different super-networks")
	}
}

// TestMergeNetworksBatchDedupsMembers: the same member submitted twice
// merges once — one fingerprint, one root.
func TestMergeNetworksBatchDedupsMembers(t *testing.T) {
	a := compileMember(t, "r = u + v", passes.LevelO2)
	b := compileMember(t, "r = u - v", passes.LevelO2)
	m, err := passes.MergeNetworks([]passes.MergeMember{a, b, a}, passes.LevelO2, passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fps) != 2 {
		t.Fatalf("fps=%d, want 2 (duplicate member must dedup)", len(m.Fps))
	}
}

// TestMergeNetworksBatchUnifiesEquivalentRoots: members with distinct
// fingerprints whose outputs normalise to the same node (commuted
// operands at O2) share one root — the demux map must tolerate this.
func TestMergeNetworksBatchUnifiesEquivalentRoots(t *testing.T) {
	a := compileMember(t, "r = u * v", passes.LevelO2)
	b := compileMember(t, "r = v * u", passes.LevelO2)
	m, err := passes.MergeNetworks([]passes.MergeMember{a, b}, passes.LevelO2, passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := m.Root(a.Fp)
	rb, _ := m.Root(b.Fp)
	if ra != rb {
		t.Fatalf("commuted members kept distinct roots %q vs %q", ra, rb)
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
		m, err := passes.MergeNetworks([]passes.MergeMember{sum, src, late}, lvl, passes.RunOptions{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"t0", "t1"} {
			if n := m.Net.NodeByID(name); n == nil || n.Filter != "source" {
				t.Fatalf("%v: %q in the super-network is %+v, want a source", lvl, name, n)
			}
		}
		if root, _ := m.Root(src.Fp); root != "t0" {
			t.Fatalf("%v: member %q roots at %q, want its source", lvl, src.Fp, root)
		}
		if root, _ := m.Root(sum.Fp); m.Net.NodeByID(root).Filter != "add" {
			t.Fatalf("%v: member %q roots at a %s node", lvl, sum.Fp, m.Net.NodeByID(root).Filter)
		}
		if root, _ := m.Root(late.Fp); m.Net.NodeByID(root).Filter != "sub" {
			t.Fatalf("%v: member %q roots at a %s node", lvl, late.Fp, m.Net.NodeByID(root).Filter)
		}
	}
}
