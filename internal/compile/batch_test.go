package compile

import (
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"dfg/internal/passes"
)

// TestKeyRendering pins the rendered forms labels, spans and perf
// records print: the Paper key is the digest's 64 hex characters, O2
// appends "-o2", a batch is "batch:" and hex, and Short is String's
// first 12 characters.
func TestKeyRendering(t *testing.T) {
	c := NewCompiler()
	const text = "r = u*u + v*v"
	digest := Digest(text, nil)
	paper, o2 := c.FingerprintAt(text, passes.LevelPaper), c.FingerprintAt(text, passes.LevelO2)
	if got, want := paper.String(), hex.EncodeToString(digest[:]); got != want || len(got) != 64 {
		t.Errorf("Paper key renders %q, want the bare digest %q", got, want)
	}
	if got, want := o2.String(), paper.String()+"-o2"; got != want {
		t.Errorf("O2 key renders %q, want %q", got, want)
	}
	members := []Member{compileMember(t, c, text, passes.LevelPaper), compileMember(t, c, "r = u - v", passes.LevelPaper)}
	_, batch, _, err := c.MergeTraced(members, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := batch.String(); !strings.HasPrefix(s, "batch:") || len(s) != len("batch:")+64 || strings.Trim(s[len("batch:"):], "0123456789abcdef") != "" {
		t.Errorf("batch key renders %q, want batch: and 64 hex characters", s)
	}
	for _, k := range []Key{paper, o2, batch} {
		if s := k.Short(); len(s) != 12 || !strings.HasPrefix(k.String(), s) {
			t.Errorf("Short() = %q, want the first 12 characters of %q", s, k.String())
		}
	}
}

func compileMember(t *testing.T, c *Compiler, text string, lvl passes.Level) Member {
	t.Helper()
	net, key, err := c.CompileTracedAt(text, lvl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Member{Key: key, Net: net}
}

// TestMergeTracedOrdersAndDedupsMembers: one membership set — given in
// two orders, and with a member repeated — is one batch key and one
// merge build, and each caller member gets the root its expression
// lands on whatever the order.
func TestMergeTracedOrdersAndDedupsMembers(t *testing.T) {
	c := NewCompiler()
	a := compileMember(t, c, "r = sqrt(u*u + v*v)", passes.LevelO2)
	b := compileMember(t, c, "r = (u*u + v*v) * 0.5", passes.LevelO2)
	fwd, fkey, froots, err := c.MergeTraced([]Member{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rev, rkey, rroots, err := c.MergeTraced([]Member{b, a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fkey != rkey || fwd != rev {
		t.Fatalf("one membership set merged under keys %v and %v", fkey, rkey)
	}
	if st := c.Stats(); st.MergeBuilds != 1 {
		t.Fatalf("%d merge builds, want 1", st.MergeBuilds)
	}
	if len(fwd.Net.Roots()) != 2 || froots[0] == froots[1] {
		t.Fatalf("two distinct members root at %v of %d roots", froots, len(fwd.Net.Roots()))
	}
	if want := []int{froots[1], froots[0], froots[1]}; !slices.Equal(rroots, want) {
		t.Fatalf("members [b a b] root at %v, want %v", rroots, want)
	}
	for i, m := range []Member{a, b} {
		if r := fwd.Net.Nodes()[fwd.Net.Roots()[froots[i]]]; r.Filter != m.Net.NodeByID(m.Net.Output()).Filter {
			t.Errorf("member %d roots at a %s node, its own output is a %s", i, r.Filter, m.Net.NodeByID(m.Net.Output()).Filter)
		}
	}

	// Members that are one expression merge nothing.
	one, key, roots, err := c.MergeTraced([]Member{a, a}, nil)
	if err != nil || one.Net != a.Net || key != a.Key || !slices.Equal(roots, []int{0, 0}) {
		t.Fatalf("[a a]: net %p key %v roots %v err %v, want a's own network and key", one.Net, key, roots, err)
	}
	if st := c.Stats(); st.MergeBuilds != 1 {
		t.Fatalf("%d merge builds after [a a], want still 1", st.MergeBuilds)
	}
}
