package dataflow_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
)

// buildVelMag constructs the velocity-magnitude network by hand:
// v_mag = sqrt(u*u + v*v + w*w).
func buildVelMag(t *testing.T) dftest.Net {
	t.Helper()
	nw := dftest.New()
	for _, s := range []string{"u", "v", "w"} {
		if _, err := nw.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	uu, err := nw.AddFilter("mul", "u", "u")
	if err != nil {
		t.Fatal(err)
	}
	vv, _ := nw.AddFilter("mul", "v", "v")
	ww, _ := nw.AddFilter("mul", "w", "w")
	s1, _ := nw.AddFilter("add", uu, vv)
	s2, _ := nw.AddFilter("add", s1, ww)
	out, _ := nw.AddFilter("sqrt", s2)
	if err := nw.Alias("v_mag", out); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetOutput("v_mag"); err != nil {
		t.Fatal(err)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestBuildVelMagNetwork(t *testing.T) {
	nw := buildVelMag(t)
	if nw.Len() != 9 {
		t.Fatalf("velmag network should have 9 nodes (3 sources + 6 ops), got %d", nw.Len())
	}
	if len(nw.Sources()) != 3 {
		t.Fatalf("want 3 sources, got %d", len(nw.Sources()))
	}
	if nw.NodeByID(nw.Output()).Filter != "sqrt" {
		t.Fatalf("output should be the sqrt node, got %q", nw.NodeByID(nw.Output()).Filter)
	}
	// Alias resolves to the same node.
	if nw.Node("v_mag") != nw.NodeByID(nw.Output()) {
		t.Fatal("alias v_mag should resolve to the output node")
	}
}

func TestTopoOrderRespectsDependencies(t *testing.T) {
	nw := buildVelMag(t)
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, n := range order {
		for _, in := range n.Inputs {
			if id := nw.Nodes()[in].ID; pos[id] >= pos[n.ID] {
				t.Fatalf("node %q scheduled before its input %q", n.ID, id)
			}
		}
	}
	if len(order) != 9 {
		t.Fatalf("all 9 nodes are live, got %d", len(order))
	}
}

func TestTopoOrderPrunesDeadNodes(t *testing.T) {
	nw := buildVelMag(t)
	// A dangling computation that does not reach the output.
	dead, _ := nw.AddFilter("mul", "u", "v")
	_ = dead
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range order {
		if n.ID == dead {
			t.Fatal("dead node must not be scheduled")
		}
	}
	if len(order) != 9 {
		t.Fatalf("want 9 live nodes, got %d", len(order))
	}
}

func TestTopoOrderRequiresOutput(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("u")
	if _, err := nw.TopoOrder(); err == nil {
		t.Fatal("topo order without an output must fail")
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	nw := buildVelMag(t)
	// Hand-corrupt the spec into a cycle (impossible via the API).
	out := nw.NodeByID(nw.Output())
	sq := nw.Nodes()[out.Inputs[0]]
	sq.Inputs[0] = out.Pos()
	if _, err := nw.TopoOrder(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestConsumersRefcounts(t *testing.T) {
	nw := buildVelMag(t)
	c := nw.Consumers()
	if u := nw.NodeByID("u").Pos(); c[u] != 2 {
		t.Fatalf("u feeds mul(u,u) twice: want 2 consumers, got %d", c[u])
	}
	if out := nw.Roots()[0]; c[out] != 1 {
		t.Fatalf("output node should count its sink: got %d", c[out])
	}
	// Total connections: each op node contributes len(Inputs).
	total := 0
	for _, n := range nw.Nodes() {
		total += len(n.Inputs)
	}
	sum := 0
	for _, v := range c {
		sum += v
	}
	if sum != total+1 { // +1 for the sink
		t.Fatalf("consumer conservation: %d vs %d", sum, total+1)
	}
}

func TestBuilderErrors(t *testing.T) {
	nw := dftest.New()
	if _, err := nw.AddSource(""); err == nil {
		t.Error("empty source name must fail")
	}
	nw.AddSource("u")
	if _, err := nw.AddSource("u"); err == nil {
		t.Error("duplicate source must fail")
	}
	if _, err := nw.AddFilter("bogus", "u"); err == nil {
		t.Error("unknown filter must fail")
	}
	if _, err := nw.AddFilter("add", "u"); err == nil {
		t.Error("wrong arity must fail")
	}
	if _, err := nw.AddFilter("add", "u", "nope"); err == nil {
		t.Error("missing input must fail")
	}
	if _, err := nw.AddFilter("source"); err == nil {
		t.Error("AddFilter(source) must fail")
	}
	if _, err := nw.AddFilter("const"); err == nil {
		t.Error("AddFilter(const) must fail")
	}
	if _, err := nw.AddFilter("decompose", "u"); err == nil {
		t.Error("AddFilter(decompose) must redirect to AddDecompose")
	}
	if _, err := nw.AddDecompose("u", 0); err == nil {
		t.Error("decomposing a scalar must fail")
	}
	if err := nw.Alias("a", "missing"); err == nil {
		t.Error("alias to missing node must fail")
	}
	if err := nw.Alias("u", "u"); err == nil {
		t.Error("alias colliding with node id must fail")
	}
	if err := nw.SetOutput("missing"); err == nil {
		t.Error("output to missing node must fail")
	}
}

// TestMintedIDsSkipSourceNames: a source may be spelled like a minted
// ID; minting steps over it instead of replacing the source in the ID
// table, and networks without such a source mint t0, t1, ... as ever.
func TestMintedIDsSkipSourceNames(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("t0")
	nw.AddSource("t2")
	c := nw.AddConst(2)
	m, err := nw.AddFilter("mul", "t0", c)
	if err != nil {
		t.Fatal(err)
	}
	if c != "t1" || m != "t3" {
		t.Fatalf("minted %q and %q, want t1 and t3", c, m)
	}
	if n := nw.NodeByID("t0"); n.Filter != "source" {
		t.Fatalf("t0 became a %s node", n.Filter)
	}
	if err := nw.SetOutput(m); err != nil {
		t.Fatal(err)
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := dftest.New().AddConst(1); got != "t0" {
		t.Fatalf("first minted ID of a fresh network is %q, want t0", got)
	}
}

func TestDecompose(t *testing.T) {
	nw := dftest.New()
	for _, s := range []string{"u", "dims", "x", "y", "z"} {
		nw.AddSource(s)
	}
	g, err := nw.AddFilter("grad3d", "u", "dims", "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	if nw.Node(g).Width != 4 {
		t.Fatalf("grad3d output width = %d, want 4 (OpenCL float4)", nw.Node(g).Width)
	}
	d, err := nw.AddDecompose(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Node(d).Width != 1 || nw.Node(d).Comp != 2 {
		t.Fatalf("decompose node wrong: %+v", nw.Node(d))
	}
	if _, err := nw.AddDecompose(g, 4); err == nil {
		t.Error("component out of range must fail")
	}
	if _, err := nw.AddDecompose(g, -1); err == nil {
		t.Error("negative component must fail")
	}
	nw.SetOutput(d)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	// Vector values must not flow into elementwise math directly, and
	// scalars not into vector ops; the builder refuses both.
	if _, err := nw.AddFilter("sqrt", g); err == nil || err.Error() != `dataflow: node "t2": input "t0" has width 4, want 1` {
		t.Errorf("vector input to sqrt: %v", err)
	}
	if _, err := nw.AddFilter("norm", "u"); err == nil || err.Error() != `dataflow: node "t2": norm needs a vector-typed input, "u" has width 1` {
		t.Errorf("scalar input to norm: %v", err)
	}
}

func TestScriptGolden(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("u")
	c := nw.AddConst(0.5)
	m, _ := nw.AddFilter("mul", c, "u")
	nw.Alias("half_u", m)
	nw.SetOutput(m)
	want := `# dataflow network specification (generated)
net = dfg.Network()
net.add_source("u")
t0 = net.add_const(0.5)
t1 = net.add_filter("mul", "t0", "u")
net.alias("half_u", "t1")
net.set_output("t1")
`
	if got := nw.Script(); got != want {
		t.Fatalf("script mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestScriptRoundTripMentionsEveryNode(t *testing.T) {
	nw := buildVelMag(t)
	s := nw.Script()
	for _, n := range nw.Nodes() {
		if !strings.Contains(s, n.ID) {
			t.Errorf("script missing node %q", n.ID)
		}
	}
}

func TestDot(t *testing.T) {
	nw := buildVelMag(t)
	dot := nw.Dot()
	if !strings.HasPrefix(dot, "digraph dataflow {") {
		t.Fatal("dot output must be a digraph")
	}
	for _, frag := range []string{`"u"`, `"v"`, `"w"`, "sqrt", "peripheries=2", "v_mag"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("dot output missing %q", frag)
		}
	}
	// Edge count equals total input connections among live nodes.
	if got, want := strings.Count(dot, "->"), 11; got != want {
		t.Errorf("dot edges = %d, want %d", got, want)
	}
}

// TestRandomNetworksScheduleValidly is a property test: randomly built
// networks (dead nodes included) always topo-sort into an order where
// inputs precede users, element for element the reference order.
func TestRandomNetworksScheduleValidly(t *testing.T) {
	elementwise := []string{"add", "sub", "mul", "div", "min", "max"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := dftest.New()
		ids := []string{}
		for i := 0; i < 3; i++ {
			id, _ := nw.AddSource(string(rune('a' + i)))
			ids = append(ids, id)
		}
		for i := 0; i < 5+rng.Intn(25); i++ {
			switch rng.Intn(4) {
			case 0:
				ids = append(ids, nw.AddConst(float64(rng.Intn(4))))
			case 1:
				id, err := nw.AddFilter("sqrt", ids[rng.Intn(len(ids))])
				if err != nil {
					return false
				}
				ids = append(ids, id)
			default:
				op := elementwise[rng.Intn(len(elementwise))]
				id, err := nw.AddFilter(op, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
				if err != nil {
					return false
				}
				ids = append(ids, id)
			}
		}
		nw.SetOutput(ids[len(ids)-1])
		if err := nw.Validate(); err != nil {
			return false
		}
		dataflow.AssertReferenceOrder(t, "random network", nw.Network)
		order, err := nw.TopoOrder()
		if err != nil {
			return false
		}
		rank := make([]int, nw.Len())
		for i, n := range order {
			rank[n.Pos()] = i
		}
		for _, n := range order {
			for _, in := range n.Inputs {
				if rank[in] >= rank[n.Pos()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSealFreezesNetwork: every mutator panics on a sealed network,
// while read-side methods keep working — the immutability contract that
// lets compiled networks be shared across engines.
func TestSealFreezesNetwork(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("u")
	id, _ := nw.AddFilter("sqrt", "u")
	if err := nw.SetOutput(id); err != nil {
		t.Fatal(err)
	}
	if nw.Sealed() {
		t.Fatal("fresh network must not be sealed")
	}
	nw.Seal()
	nw.Seal() // idempotent
	if !nw.Sealed() {
		t.Fatal("Seal must stick")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a sealed network must panic", name)
			}
		}()
		fn()
	}
	mustPanic("AddSource", func() { nw.AddSource("v") })
	mustPanic("AddConst", func() { nw.AddConst(1) })
	mustPanic("AddFilter", func() { nw.AddFilter("sqrt", "u") })
	mustPanic("AddDecompose", func() { nw.AddDecompose("u", 0) })
	mustPanic("Alias", func() { nw.Alias("a", id) })
	mustPanic("SetOutput", func() { nw.SetOutput(id) })
	mustPanic("Compact", func() { nw.Compact([]int32{0, 1}) })
	mustPanic("RewriteToConst", func() { nw.RewriteToConst(1, 0) })

	// Read-side still works.
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	if nw.Node(id) == nil || len(nw.Sources()) != 1 {
		t.Fatal("sealed network must stay readable")
	}
}

// TestInputsWindowsAreOwned: nodes take their Inputs from one shared
// chunk, so each window must end where its node's inputs do. Appending
// to one node's Inputs, or rewriting it to a filter with more inputs,
// must leave every other node's Inputs as they were.
func TestInputsWindowsAreOwned(t *testing.T) {
	nw := buildVelMag(t)
	snapshot := func() []string {
		out := make([]string, nw.Len())
		for i, n := range nw.Nodes() {
			out[i] = fmt.Sprint(n.Inputs)
		}
		return out
	}
	others := func(what string, changed int, before []string) {
		t.Helper()
		for i, n := range nw.Nodes() {
			if got := fmt.Sprint(n.Inputs); i != changed && got != before[i] {
				t.Errorf("%s node %q changed node %q: inputs %s, were %s", what, nw.Nodes()[changed].ID, n.ID, got, before[i])
			}
		}
	}
	out := nw.Roots()[0]
	before := snapshot()
	if err := nw.RewriteToFilter(out, "select", []int32{0, 1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	others("rewriting", int(out), before)
	// A node built after the rewrite takes the window that follows the
	// rewritten node's, so the appends below cover that seam too.
	if _, err := nw.AddFilter("add", "u", "w"); err != nil {
		t.Fatal(err)
	}
	for i, n := range nw.Nodes() {
		before := snapshot()
		k := len(n.Inputs)
		n.Inputs = append(n.Inputs, 0, 1)
		others("appending to", i, before)
		n.Inputs = n.Inputs[:k]
	}
}

// TestGrowReservesInputs: the Inputs slots Grow reserves are one
// chunk, so a builder that counted its nodes' inputs up front (the
// expression front end does, from the tokens) takes every window from
// it: 100 slots cost one allocation where 64-slot chunks cost two.
func TestGrowReservesInputs(t *testing.T) {
	add, _ := dataflow.Callable("add")
	build := func(inputs int) float64 {
		return testing.AllocsPerRun(50, func() {
			nw := dataflow.NewNetwork()
			nw.Grow(52, inputs, 1)
			at, _ := nw.Source("u")
			c := nw.AddConstAt(1)
			for i := 0; i < 50; i++ {
				if at, _ = nw.AddFilterAt(add, at, c); at < 0 {
					t.Fatal("no node added")
				}
			}
		})
	}
	if sized, chunked := build(100), build(0); sized != chunked-1 {
		t.Fatalf("building 50 binary nodes made %v allocations with their 100 inputs reserved, %v without: want one fewer", sized, chunked)
	}
}

// TestPosTracksRemoval: a node's Pos and the name index must agree with
// Nodes() after every construction step and compaction, and Compact
// must move inputs, roots and aliases to their nodes' new positions.
func TestPosTracksRemoval(t *testing.T) {
	nw := buildVelMag(t)
	check := func() {
		t.Helper()
		for i, n := range nw.Nodes() {
			if n.Pos() != int32(i) || nw.NodeByID(n.ID) != n {
				t.Fatalf("node %q is at %d: Pos %d, NodeByID %p", n.ID, i, n.Pos(), nw.NodeByID(n.ID))
			}
		}
		if err := nw.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	dead, _ := nw.AddFilter("mul", "u", "w")
	dup, _ := nw.AddFilter("mul", "u", "u") // a second u*u
	kept, _ := nw.AddFilter("add", dup, "v")
	nw.Alias("d", dead)
	nw.Alias("k", kept)
	check()
	to := make([]int32, nw.Len())
	for i := range to {
		to[i] = int32(i)
	}
	uu := nw.NodeByID("t0").Pos()
	to[nw.NodeByID(dead).Pos()] = -1
	to[nw.NodeByID(dup).Pos()] = uu
	if err := nw.Compact(to); err != nil {
		t.Fatal(err)
	}
	check()
	if nw.NodeByID(dead) != nil || nw.NodeByID(dup) != nil || nw.Node("d") != nil {
		t.Fatal("a deleted or merged node, or an alias of one, is still there")
	}
	k := nw.Node("k")
	if k == nil || k.Pos() != int32(nw.Len()-1) || k.Inputs[0] != uu {
		t.Fatalf("kept node %+v after compaction, want the last node reading position %d", k, uu)
	}
	if nw.Output() != "t5" {
		t.Fatalf("output %q after compaction, want t5", nw.Output())
	}
	to = make([]int32, nw.Len())
	for i := range to {
		to[i] = int32(i)
	}
	to[0] = 1 // a merge must point backwards
	if err := nw.Compact(to); err == nil {
		t.Fatal("a forward merge compacted")
	}
}

// TestMintedIDsAreNoUserNames: a name genID already minted is no source
// or alias, only canonical "t<n>" names are generic, and NodeByID finds
// minted IDs (by scan) and sources (by name) alike.
func TestMintedIDsAreNoUserNames(t *testing.T) {
	nw := dftest.New()
	if _, err := nw.AddSource("t1"); err != nil {
		t.Fatal(err)
	}
	a, b := nw.AddConst(1), nw.AddConst(2)
	if a != "t0" || b != "t2" {
		t.Fatalf("minted %q and %q, want t0 and t2 (t1 is a source)", a, b)
	}
	if _, err := nw.AddSource("t0"); err == nil {
		t.Fatal("a source took the minted ID t0")
	}
	if err := nw.Alias("t2", "t1"); err == nil {
		t.Fatal("an alias took the minted ID t2")
	}
	for _, name := range []string{"t-1", "t01", "t+3", "t3"} {
		if _, err := nw.AddSource(name); err != nil {
			t.Fatalf("%q is no minted ID: %v", name, err)
		}
	}
	if c := nw.AddConst(3); c != "t4" {
		t.Fatalf("minted %q after source t3, want t4", c)
	}
	for id, filter := range map[string]string{"t0": "const", "t1": "source", "t2": "const", "t01": "source", "t4": "const"} {
		if n := nw.NodeByID(id); n == nil || n.Filter != filter {
			t.Errorf("NodeByID(%q) = %+v, want a %s", id, n, filter)
		}
	}
	if nw.NodeByID("t5") != nil {
		t.Error("NodeByID found t5, which was never minted")
	}
}
