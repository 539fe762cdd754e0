package dataflow_test

import (
	"strings"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
	"dfg/internal/expr"
	"dfg/internal/passes"
	"dfg/internal/vortex"
)

// TestTopoOrderMatchesReference: the position-based order equals the
// map-based one on the paper's three expressions at both levels (the
// Paper-level networks are the pinned pass goldens), a multi-root merge
// and a cycle.
func TestTopoOrderMatchesReference(t *testing.T) {
	var members []*dataflow.Network
	for _, e := range vortex.Expressions() {
		for _, pipe := range []*passes.Pipeline{passes.Paper, passes.O2} {
			nw, _, err := expr.CompileWithPipeline(e.Text, nil, pipe, passes.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dataflow.AssertReferenceOrder(t, e.Name+"@"+pipe.Name(), nw)
			if pipe == passes.O2 {
				members = append(members, nw)
			}
		}
	}
	merged, err := passes.MergeNetworks(members, passes.LevelO2, passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Net.Roots()) < 2 {
		t.Fatal("merge of three expressions has one root")
	}
	dataflow.AssertReferenceOrder(t, "merge", merged.Net)

	// A hand-built cycle fails with the reference's text, sealed or not.
	p, err := expr.Parse(vortex.VelMagExpr)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := expr.BuildNetworkWithDefinitions(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := cyc.NodeByID(cyc.Output())
	cyc.Nodes()[out.Inputs[0]].Inputs[0] = out.Pos() // a forward edge
	if _, err := cyc.TopoOrder(); err == nil {
		t.Fatal("cycle was ordered")
	}
	dataflow.AssertReferenceOrder(t, "cycle", cyc)
	cyc.Seal()
	dataflow.AssertReferenceOrder(t, "cycle (sealed)", cyc)
}

// TestSealedTopoOrderIsFree: a sealed network hands out the order Seal
// computed — the same backing array, with no allocation — and a sealed
// network that failed validation keeps failing.
func TestSealedTopoOrderIsFree(t *testing.T) {
	nw, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	first, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		again, _ := nw.TopoOrder()
		if &again[0] != &first[0] {
			t.Fatal("sealed TopoOrder returned a new slice")
		}
		if nw.Validate() != nil {
			t.Fatal("sealed network stopped validating")
		}
	}); allocs != 0 {
		t.Fatalf("sealed TopoOrder + Validate allocate %.0f times per call, want 0", allocs)
	}

	bad := dftest.New()
	bad.AddSource("u")
	id, _ := bad.AddFilter("sqrt", "u")
	if err := bad.SetOutput(id); err != nil {
		t.Fatal(err)
	}
	bad.NodeByID(id).Inputs[0] = 7 // out of range
	bad.Seal()
	for i := 0; i < 2; i++ {
		if err := bad.Validate(); err == nil {
			t.Fatal("sealed network with a missing input validates")
		}
		if _, err := bad.TopoOrder(); err == nil || !strings.Contains(err.Error(), `node "t0": missing input 7`) {
			t.Fatalf("sealed network with a missing input orders: %v", err)
		}
	}
}
