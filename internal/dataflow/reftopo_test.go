package dataflow

import (
	"fmt"
	"testing"
)

// refTopoOrder is the map-of-strings Kahn's algorithm TopoOrder ran
// before it moved to node positions, kept as the differential reference
// (it reads each input's ID through its position):
// the new order must match it element for element, and a cycle must fail
// with the same text.
func refTopoOrder(nw *Network) ([]*Node, error) {
	if nw.Output() == "" {
		return nil, fmt.Errorf("dataflow: network has no output")
	}
	live := make(map[string]bool)
	var visit func(id string)
	visit = func(id string) {
		if live[id] {
			return
		}
		live[id] = true
		n := nw.NodeByID(id)
		if n == nil {
			return
		}
		for _, in := range n.Inputs {
			visit(nw.Nodes()[in].ID)
		}
	}
	for _, r := range nw.Roots() {
		visit(nw.Nodes()[r].ID)
	}
	indeg := make(map[string]int, len(live))
	dependents := make(map[string][]string, len(live))
	for _, n := range nw.Nodes() {
		if !live[n.ID] {
			continue
		}
		for _, p := range n.Inputs {
			if in := nw.Nodes()[p].ID; live[in] {
				indeg[n.ID]++
				dependents[in] = append(dependents[in], n.ID)
			}
		}
	}
	var order []*Node
	for _, n := range nw.Nodes() {
		if live[n.ID] && indeg[n.ID] == 0 {
			order = append(order, n)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, dep := range dependents[order[i].ID] {
			indeg[dep]--
			if indeg[dep] == 0 {
				order = append(order, nw.NodeByID(dep))
			}
		}
	}
	if len(order) != len(live) {
		return nil, fmt.Errorf("dataflow: cycle detected (%d of %d nodes schedulable)", len(order), len(live))
	}
	return order, nil
}

// AssertReferenceOrder checks nw's TopoOrder against refTopoOrder node
// for node, error text included (exported for the dataflow_test
// package).
func AssertReferenceOrder(t *testing.T, name string, nw *Network) {
	t.Helper()
	got, gotErr := nw.TopoOrder()
	want, wantErr := refTopoOrder(nw)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes ordered, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d is %s, reference %s", name, i, got[i].ID, want[i].ID)
		}
	}
}
