package passes_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
	"dfg/internal/expr"
	"dfg/internal/passes"
	"dfg/internal/vortex"
)

// goldenName maps a paper expression to its testdata file.
var goldenName = map[string]string{
	"VelMag":  "velmag",
	"VortMag": "vortmag",
	"Q-Crit":  "qcrit",
}

// marshal renders a network exactly as the golden files were captured:
// compact JSON plus a trailing newline.
func marshal(t *testing.T, nw *dataflow.Network) []byte {
	t.Helper()
	b, err := json.Marshal(nw)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}

// TestPaperPipelineGoldenNetworks is the byte-identity acceptance test:
// the Paper pipeline must produce, for each paper expression, exactly
// the network the pre-pipeline front end produced (captured in testdata
// before the refactor).
func TestPaperPipelineGoldenNetworks(t *testing.T) {
	for _, e := range vortex.Expressions() {
		net, _, err := expr.CompileWithPipeline(e.Text, nil, passes.Paper, passes.RunOptions{Verify: true})
		if err != nil {
			t.Fatalf("%s: compile: %v", e.Name, err)
		}
		got := marshal(t, net)
		path := filepath.Join("testdata", goldenName[e.Name]+".golden.json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Paper pipeline network differs from golden %s:\ngot:  %s\nwant: %s",
				e.Name, path, got, want)
		}
	}
}

// legacyCSE is the historical one-pass elimination the Paper pipeline
// replaced, kept as its oracle: pooling and CSE in one forward pass,
// keyed by a string of the filter, the constant's shortest decimal
// form, the component and the inputs in order.
func legacyCSE(t *testing.T, nw *dataflow.Network) {
	t.Helper()
	nodes := nw.Nodes()
	canon := map[string]int32{}
	to := make([]int32, len(nodes)) // position -> position it merged into
	for i, n := range nodes {
		to[i] = int32(i)
		ins := make([]string, len(n.Inputs))
		for a, in := range n.Inputs {
			ins[a] = nodes[to[in]].ID
		}
		key := n.Filter + "|" + strings.Join(ins, "|")
		switch n.Filter {
		case "source":
			key = "source:" + n.ID
		case "const":
			key += strconv.FormatFloat(n.Value, 'g', -1, 64)
		case "decompose":
			key += ":" + strconv.Itoa(n.Comp)
		}
		if j, ok := canon[key]; ok {
			to[i] = j
			continue
		}
		canon[key] = int32(i)
	}
	if err := nw.Compact(to); err != nil {
		t.Fatal(err)
	}
}

// TestPaperPipelineMatchesLegacyCSE proves the extraction faithful on
// arbitrary programs: pooling+CSE as passes produce the same bytes as
// the historical one-pass elimination.
func TestPaperPipelineMatchesLegacyCSE(t *testing.T) {
	programs := []string{
		vortex.VelMagExpr,
		vortex.VortMagExpr,
		vortex.QCritExpr,
		`a = if (norm(grad3d(b,dims,x,y,z)) > 5) then (c * c) else (-c * c)`,
		`s = 2*u + 2*u + 2*v
		 r = s / (s + 1)`,
		`r = min(max(u, 0), max(u, 0)) + 1 + 1`,
	}
	for _, text := range programs {
		p, err := expr.Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		legacy, err := expr.BuildNetworkWithDefinitions(p, nil)
		if err != nil {
			t.Fatalf("build %q: %v", text, err)
		}
		legacyCSE(t, legacy)
		legacy.Seal()

		piped, _, err := expr.CompileWithPipeline(text, nil, passes.Paper, passes.RunOptions{Verify: true})
		if err != nil {
			t.Fatalf("pipeline %q: %v", text, err)
		}
		if got, want := marshal(t, piped), marshal(t, legacy); !bytes.Equal(got, want) {
			t.Errorf("%q: pipeline network differs from legacy CSE:\ngot:  %s\nwant: %s", text, got, want)
		}
	}
}

// TestO2ForwardsGradients checks the headline O2 rewrite on the paper's
// Q-criterion: every decompose-of-grad3d becomes a single-axis stencil,
// the wide gradients die, and the network shrinks.
func TestO2ForwardsGradients(t *testing.T) {
	paper, _, err := expr.CompileWithPipeline(vortex.QCritExpr, nil, passes.Paper, passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o2, res, err := expr.CompileWithPipeline(vortex.QCritExpr, nil, passes.O2, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if o2.Len() >= paper.Len() {
		t.Errorf("O2 did not shrink Q-Crit: %d nodes vs %d at Paper level", o2.Len(), paper.Len())
	}
	if res.NodesRemoved() == 0 {
		t.Error("O2 result records no removed nodes")
	}
	for _, n := range o2.Nodes() {
		if n.Filter == "grad3d" {
			t.Errorf("node %s: full grad3d survived decompose-forwarding", n.ID)
		}
		if n.Filter == "decompose" {
			t.Errorf("node %s: decompose survived on Q-Crit (all decomposes take gradients)", n.ID)
		}
	}
	got := map[string]bool{}
	for _, rec := range res.Records {
		got[rec.Pass] = true
	}
	for _, want := range []string{"constpool", "cse", "constfold", "algebraic", "cse-commute", "decompose-forward", "dce"} {
		if !got[want] {
			t.Errorf("O2 run has no record for pass %q", want)
		}
	}
}

// TestConstFoldAndAlgebraic exercises the scalar rewrites end to end.
func TestConstFoldAndAlgebraic(t *testing.T) {
	net, _, err := expr.CompileWithPipeline(`r = (1+2)*u + -(0.0)`, nil, passes.O2, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	out := net.NodeByID(net.Output())
	if out.Filter != "mul" {
		t.Fatalf("output filter = %q, want mul (x + (-0) should fold away)", out.Filter)
	}
	if net.Len() != 3 { // const 3, source u, mul
		t.Errorf("network has %d nodes, want 3: %v", net.Len(), names(net))
	}
	c := net.Nodes()[out.Inputs[0]]
	if c.Filter != "const" || c.Value != 3 {
		t.Errorf("lhs = %s %q %v, want folded const 3", c.ID, c.Filter, c.Value)
	}

	net, _, err = expr.CompileWithPipeline(`r = u * 1`, nil, passes.O2, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if out := net.NodeByID(net.Output()); out.Filter != "source" || out.ID != "u" {
		t.Errorf("u*1 output = %s %q, want the source u itself", out.ID, out.Filter)
	}

	// Identities that hold only for finite data stay computed: 0*x is NaN
	// for infinite x, and x + (+0), x - (-0) are +0 for x = -0.
	for text, want := range map[string]string{
		"r = 0 * exp(u)": "mul",
		"r = u * 0":      "mul",
		"r = u + 0":      "add",
		"r = 0 + u":      "add",
		"r = u - -(0.0)": "sub",
	} {
		net, _, err := expr.CompileWithPipeline(text, nil, passes.O2, passes.RunOptions{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if out := net.NodeByID(net.Output()); out.Filter != want {
			t.Errorf("%s: output = %q, want %s kept", text, out.Filter, want)
		}
	}

	// A fold produces the bits every strategy computes: fmin/fmax yield
	// the other operand for a NaN and keep a of a +0/-0 pair, fabs clears
	// the sign bit.
	for text, want := range map[string]uint32{
		"min(1.0, 0.0/0.0)":   0x3f800000,
		"min(0.0/0.0, 1.0)":   0x3f800000,
		"max(1.0, 0.0/0.0)":   0x3f800000,
		"max(0.0/0.0, 1.0)":   0x3f800000,
		"min(0.0, -(0.0))":    0x00000000,
		"min(-(0.0), 0.0)":    0x80000000,
		"max(0.0, -(0.0))":    0x00000000,
		"max(-(0.0), 0.0)":    0x80000000,
		"abs(-(0.0))":         0x00000000,
		"abs(-(1.0/0.0))":     0x7f800000,
		"min(1.0, 2.0)":       0x3f800000,
		"max(1.0, abs(-2.0))": 0x40000000,
	} {
		net, _, err := expr.CompileWithPipeline("r = pow(u, "+text+")", nil, passes.O2, passes.RunOptions{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		c := net.Nodes()[net.NodeByID(net.Output()).Inputs[1]]
		if got := math.Float32bits(float32(c.Value)); c.Filter != "const" || got != want {
			t.Errorf("%s folded to %q %#08x, want const %#08x", text, c.Filter, got, want)
		}
	}
}

// TestCommuteCSE checks that only the commutative variant merges
// swapped operands, and that min/max stay excluded.
func TestCommuteCSE(t *testing.T) {
	const text = `r = u*v + v*u`
	paper, _, err := expr.CompileWithPipeline(text, nil, passes.Paper, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	o2, _, err := expr.CompileWithPipeline(text, nil, passes.O2, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if paper.Len() != 5 { // u, v, u*v, v*u, add
		t.Errorf("Paper kept %d nodes, want 5 (order-sensitive CSE must not merge u*v with v*u): %v", paper.Len(), names(paper))
	}
	if o2.Len() != 4 { // u, v, mul, add
		t.Errorf("O2 kept %d nodes, want 4 (commute-CSE merges u*v with v*u): %v", o2.Len(), names(o2))
	}

	minNet, _, err := expr.CompileWithPipeline(`r = min(u,v) + min(v,u)`, nil, passes.O2, passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if minNet.Len() != 5 {
		t.Errorf("min kept %d nodes, want 5 (fmin is not bitwise commutative, must not merge): %v", minNet.Len(), names(minNet))
	}
}

// TestDecomposeForwardLane3 checks the padding lane becomes an exact
// constant zero.
func TestDecomposeForwardLane3(t *testing.T) {
	nw := dftest.New()
	for _, s := range []string{"f", "dims", "x", "y", "z"} {
		if _, err := nw.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	g, err := nw.AddFilter("grad3d", "f", "dims", "x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	d, err := nw.AddDecompose(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetOutput(d); err != nil {
		t.Fatal(err)
	}
	if _, err := passes.O2.RunWith(nw.Network, passes.RunOptions{Verify: true}); err != nil {
		t.Fatal(err)
	}
	out := nw.NodeByID(nw.Output())
	if out.Filter != "const" || out.Value != 0 {
		t.Fatalf("lane-3 decompose became %q %v, want const 0", out.Filter, out.Value)
	}
	for _, n := range nw.Nodes() {
		if n.Filter == "grad3d" {
			t.Errorf("dead grad3d %s survived DCE", n.ID)
		}
	}
}

// TestPipelineRefusesSealed pins the mutability contract.
func TestPipelineRefusesSealed(t *testing.T) {
	net, err := expr.Compile(vortex.VelMagExpr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := passes.O2.Run(net); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("running a pipeline on a sealed network: err = %v, want sealed error", err)
	}
}

// TestLevels pins the level parsing and cache tags the compile cache
// keys are built from.
func TestLevels(t *testing.T) {
	cases := []struct {
		in   string
		want passes.Level
		err  bool
	}{
		{"", passes.LevelPaper, false},
		{"paper", passes.LevelPaper, false},
		{"Paper", passes.LevelPaper, false},
		{"o2", passes.LevelO2, false},
		{"O2", passes.LevelO2, false},
		{"O3", 0, true},
	}
	for _, c := range cases {
		got, err := passes.ParseLevel(c.in)
		if c.err != (err != nil) || (!c.err && got != c.want) {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v (err=%v)", c.in, got, err, c.want, c.err)
		}
	}
	if passes.ForLevel(passes.LevelPaper) != passes.Paper || passes.ForLevel(passes.LevelO2) != passes.O2 {
		t.Error("ForLevel does not select the predefined pipelines")
	}
	if names := passes.Names(); len(names) != 7 {
		t.Errorf("Names() = %v, want the 7 distinct pass names", names)
	}
}

// names lists node IDs and filters for failure messages.
func names(nw *dataflow.Network) []string {
	var out []string
	for _, n := range nw.Nodes() {
		out = append(out, n.ID+":"+n.Filter)
	}
	return out
}
