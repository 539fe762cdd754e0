package passes_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
	"dfg/internal/passes"
)

// runPaper runs the Paper pipeline (constant pooling + limited CSE) on a
// hand-built network and returns how many nodes it eliminated.
func runPaper(t *testing.T, nw *dataflow.Network) int {
	t.Helper()
	res, err := passes.Paper.RunWith(nw, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.NodesRemoved()
}

func TestCSEDeduplicatesConstantsAndDecomposes(t *testing.T) {
	nw := dftest.New()
	for _, s := range []string{"u", "dims", "x", "y", "z"} {
		nw.AddSource(s)
	}
	g1, _ := nw.AddFilter("grad3d", "u", "dims", "x", "y", "z")
	g2, _ := nw.AddFilter("grad3d", "u", "dims", "x", "y", "z") // duplicate
	c1 := nw.AddConst(0.5)
	c2 := nw.AddConst(0.5) // duplicate constant
	c3 := nw.AddConst(2.0) // distinct constant survives
	d1, _ := nw.AddDecompose(g1, 1)
	d2, _ := nw.AddDecompose(g2, 1) // duplicate after g2 -> g1
	d3, _ := nw.AddDecompose(g1, 2) // distinct component survives
	m1, _ := nw.AddFilter("mul", c1, d1)
	m2, _ := nw.AddFilter("mul", c2, d2) // duplicate after remaps
	a, _ := nw.AddFilter("add", m1, m2)
	b, _ := nw.AddFilter("mul", c3, d3)
	out, _ := nw.AddFilter("add", a, b)
	nw.SetOutput(out)

	// Eliminated: g2, c2, d2, m2 = 4 nodes.
	if n := runPaper(t, nw.Network); n != 4 {
		t.Fatalf("want 4 eliminated nodes, got %d", n)
	}
	// add(m1, m2) must now read m1 twice.
	addNode := nw.Node(a)
	if addNode.Inputs[0] != addNode.Inputs[1] {
		t.Fatalf("duplicate mul should collapse: %v", addNode.Inputs)
	}
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	grads, consts, decs := 0, 0, 0
	for _, nd := range order {
		switch nd.Filter {
		case "grad3d":
			grads++
		case "const":
			consts++
		case "decompose":
			decs++
		}
	}
	if grads != 1 || consts != 2 || decs != 2 {
		t.Fatalf("after CSE: grads=%d consts=%d decs=%d, want 1/2/2", grads, consts, decs)
	}
}

func TestCSEIsOrderSensitive(t *testing.T) {
	// The paper's "limited" CSE must NOT merge add(a, b) with add(b, a):
	// Q-criterion's s_1 and s_3 stay distinct kernels in Table II.
	nw := dftest.New()
	nw.AddSource("a")
	nw.AddSource("b")
	x, _ := nw.AddFilter("add", "a", "b")
	y, _ := nw.AddFilter("add", "b", "a")
	out, _ := nw.AddFilter("mul", x, y)
	nw.SetOutput(out)
	if n := runPaper(t, nw.Network); n != 0 {
		t.Fatalf("commuted adds must not merge, eliminated %d", n)
	}
}

func TestCSERemapsOutputAndAliases(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("a")
	x, _ := nw.AddFilter("sqrt", "a")
	y, _ := nw.AddFilter("sqrt", "a")
	nw.Alias("first", x)
	nw.Alias("second", y)
	nw.SetOutput(y)
	if n := runPaper(t, nw.Network); n != 1 {
		t.Fatalf("want 1 eliminated, got %d", n)
	}
	if nw.Output() != x {
		t.Fatalf("output should remap to %q, got %q", x, nw.Output())
	}
	if nw.Node("second") != nw.Node("first") {
		t.Fatal("alias should remap to the surviving node")
	}
}

// TestCSERejectsMissingInput: a hand-built network reading a position
// that holds no node, or a node that does not precede the reader, is an
// error, not a key that could merge unrelated nodes.
func TestCSERejectsMissingInput(t *testing.T) {
	for _, bad := range []int32{7, 1, -1} { // out of range, the node itself, negative
		nw := dftest.New()
		nw.AddSource("a")
		x, _ := nw.AddFilter("sqrt", "a")
		nw.SetOutput(x)
		nw.NodeByID(x).Inputs[0] = bad
		_, err := passes.New("cse", passes.CSE()).Run(nw.Network)
		if want := fmt.Sprintf(`node "t0" reads position %d, which does not precede it`, bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("CSE over input position %d: %v", bad, err)
		}
	}
}

// TestConstantsKeyedByBits: pooling and CSE merge constants with the same
// bits only — NaNs of different payload, and +0 and -0, stay apart.
func TestConstantsKeyedByBits(t *testing.T) {
	nw := dftest.New()
	nw.AddSource("u")
	values := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
		math.Float64frombits(0x7ff8000000000001), // the first NaN again: merges
		0, math.Copysign(0, -1), 0,               // +0, -0, +0 again: merges
	}
	acc := "u"
	for _, v := range values {
		s, _ := nw.AddFilter("add", acc, nw.AddConst(v))
		acc = s
	}
	nw.SetOutput(acc)
	runPaper(t, nw.Network)
	var bits []uint64
	for _, n := range nw.Nodes() {
		if n.Filter == "const" {
			bits = append(bits, math.Float64bits(n.Value))
		}
	}
	want := []uint64{0x7ff8000000000001, 0x7ff8000000000002, 0, 1 << 63}
	if len(bits) != len(want) {
		t.Fatalf("constants after pooling: %#x, want %#x", bits, want)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("constants after pooling: %#x, want %#x", bits, want)
		}
	}
}

// TestVerifyInvariantsRejectsBadPositions: an input position out of
// range, or one that does not precede its node (a forward edge, which
// construction order as a schedule cannot run), fails the check.
func TestVerifyInvariantsRejectsBadPositions(t *testing.T) {
	for bad, want := range map[int32]string{
		9: "reads missing position 9",
		3: `node "t0" (index 2) reads "t1" (index 3): construction order is not topological`,
	} {
		nw := dftest.New()
		nw.AddSource("a")
		nw.AddSource("b")
		x, _ := nw.AddFilter("sqrt", "a")
		y, _ := nw.AddFilter("add", x, "b")
		nw.SetOutput(y)
		if err := passes.VerifyInvariants(nw.Network); err != nil {
			t.Fatal(err)
		}
		nw.NodeByID(x).Inputs[0] = bad
		if err := passes.VerifyInvariants(nw.Network); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("input position %d: %v, want %q", bad, err, want)
		}
	}
}
