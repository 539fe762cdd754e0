package expr

import (
	"strings"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
	"dfg/internal/vortex"
)

func TestDefinitionsExpand(t *testing.T) {
	defs := map[string]string{
		"speed": "sqrt(u*u + v*v + w*w)",
	}
	net, err := CompileWithDefinitions("a = speed * 2", defs)
	if err != nil {
		t.Fatal(err)
	}
	// The expansion pulls in u, v, w as sources and ends in mul.
	if len(net.Sources()) != 3 {
		t.Fatalf("want 3 sources from the definition, got %d", len(net.Sources()))
	}
	if net.NodeByID(net.Output()).Filter != "mul" {
		t.Fatalf("output filter %q", net.NodeByID(net.Output()).Filter)
	}
}

func TestDefinitionsMemoized(t *testing.T) {
	defs := map[string]string{"vort": vortex.VortMagExpr}
	// Two references to the same definition expand once: still exactly
	// 3 gradient filters.
	net, err := CompileWithDefinitions("e = vort * vort", defs)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := net.TopoOrder()
	grads := 0
	for _, n := range order {
		if n.Filter == "grad3d" {
			grads++
		}
	}
	if grads != 3 {
		t.Fatalf("definition must expand once: %d gradients", grads)
	}
}

func TestDefinitionLocalsDoNotLeak(t *testing.T) {
	defs := map[string]string{"vort": vortex.VortMagExpr}
	// The definition assigns du internally; referencing du outside must
	// create a fresh SOURCE, not reach the definition's local.
	net, err := CompileWithDefinitions("a = vort + 1\nb = a * du", defs)
	if err != nil {
		t.Fatal(err)
	}
	duNode := dftest.Net{Network: net}.Node("du")
	if duNode == nil || duNode.Filter != "source" {
		t.Fatalf("du outside the definition must be a source, got %+v", duNode)
	}
}

func TestDefinitionDoesNotReadCallerLocals(t *testing.T) {
	// The definition references "base", which the caller also assigns.
	// The definition's "base" must resolve to a host source, not the
	// caller's local.
	defs := map[string]string{"shifted": "base + 100"}
	net, err := CompileWithDefinitions("base = u * u\nout = shifted + base", defs)
	if err != nil {
		t.Fatal(err)
	}
	// "base" must exist as a source (used by the definition)...
	if n := (dftest.Net{Network: net}).Node("base"); n == nil || n.Filter != "source" {
		t.Fatalf("definition's base must be a host source, got %+v", n)
	}
	// ...while the caller's final add reads the local mul through its
	// alias, which survives un-clobbered.
	out := net.NodeByID(net.Output())
	second := net.Nodes()[out.Inputs[1]]
	if second.Filter != "mul" {
		t.Fatalf("caller's base must stay bound to the local mul, got %q", second.Filter)
	}
}

func TestUserLocalShadowsDefinition(t *testing.T) {
	defs := map[string]string{"speed": "sqrt(u*u)"}
	net, err := CompileWithDefinitions("speed = 3\na = speed * v", defs)
	if err != nil {
		t.Fatal(err)
	}
	// The local assignment wins: no sqrt in the network.
	for _, n := range net.Nodes() {
		if n.Filter == "sqrt" {
			t.Fatal("local name must shadow the definition")
		}
	}
}

func TestRecursiveDefinitionsRejected(t *testing.T) {
	defs := map[string]string{
		"a": "b + 1",
		"b": "a + 1",
	}
	if _, err := CompileWithDefinitions("x = a", defs); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("recursive definitions must fail, got %v", err)
	}
	// Direct self-recursion too.
	if _, err := CompileWithDefinitions("x = me", map[string]string{"me": "me + 1"}); err == nil {
		t.Fatal("self-recursive definition must fail")
	}
}

func TestNestedDefinitions(t *testing.T) {
	defs := map[string]string{
		"speed2": "u*u + v*v + w*w",
		"speed":  "sqrt(speed2)",
		"mach":   "speed / c_sound",
	}
	net, err := CompileWithDefinitions("m2 = mach * mach", defs)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range net.Sources() {
		names[s.ID] = true
	}
	for _, want := range []string{"u", "v", "w", "c_sound"} {
		if !names[want] {
			t.Fatalf("missing source %q from nested expansion: %v", want, names)
		}
	}
}

func TestDefinitionErrors(t *testing.T) {
	// A definition with a syntax error surfaces with its name.
	_, err := CompileWithDefinitions("x = bad", map[string]string{"bad": "1 +"})
	if err == nil || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("definition parse errors must name the definition: %v", err)
	}
	// Unreferenced broken definitions still fail fast (they are parsed
	// up front, like a visualization tool validating its expression list).
	_, err = CompileWithDefinitions("x = u", map[string]string{"broken": "$"})
	if err == nil {
		t.Fatal("broken definitions must be rejected even if unused")
	}
}

func TestDefinitionsComposeWithCSE(t *testing.T) {
	defs := map[string]string{"e": "u * u"}
	net, err := CompileWithDefinitions("a = e + e\nb = a + u*u", defs)
	if err != nil {
		t.Fatal(err)
	}
	// After CSE the definition's u*u and the caller's u*u collapse.
	muls := 0
	order, _ := net.TopoOrder()
	for _, n := range order {
		if n.Filter == "mul" {
			muls++
		}
	}
	if muls != 1 {
		t.Fatalf("CSE should collapse duplicate muls across the expansion boundary: %d", muls)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = dataflow.ClassElementwise // keep the import honest if counts change
}
