// Package dftest builds dataflow networks by name, for tests: a name
// map over the network's positional builder. A node is named by its ID
// or by an alias bound to it, as in the script form Network.Script
// prints; every method resolves the names and calls the ...At method
// the front end uses.
package dftest

import (
	"fmt"

	"dfg/internal/dataflow"
)

// Net is a network whose nodes the methods below name.
type Net struct{ *dataflow.Network }

// New returns an empty network.
func New() Net { return Net{dataflow.NewNetwork()} }

// Pos returns the position of the node whose ID or alias is name.
func (n Net) Pos(name string) (int32, error) {
	if nd := n.NodeByID(name); nd != nil {
		return nd.Pos(), nil
	}
	for _, a := range n.Aliases() {
		if a[0] == name {
			return n.NodeByID(a[1]).Pos(), nil
		}
	}
	return 0, fmt.Errorf("dataflow: unknown node or alias %q", name)
}

// Node returns the node whose ID or alias is name, or nil.
func (n Net) Node(name string) *dataflow.Node {
	p, err := n.Pos(name)
	if err != nil {
		return nil
	}
	return n.Nodes()[p]
}

// AddSource declares a host-provided input array and returns its ID
// (its name). Declaring a name twice is an error.
func (n Net) AddSource(name string) (string, error) {
	if n.NodeByID(name) != nil {
		return "", fmt.Errorf("dataflow: duplicate node id %q", name)
	}
	_, err := n.Source(name)
	return name, err
}

// AddConst adds a scalar constant and returns its ID.
func (n Net) AddConst(v float64) string {
	p := n.AddConstAt(v)
	return n.Nodes()[p].ID
}

// AddFilter adds an invocation of filter on the named nodes and returns
// its ID.
func (n Net) AddFilter(filter string, inputs ...string) (string, error) {
	prim, _ := dataflow.Callable(filter)
	if prim == (dataflow.Prim{}) {
		return "", fmt.Errorf("dataflow: unknown filter %q", filter)
	}
	ins := make([]int32, len(inputs))
	for i, name := range inputs {
		p, err := n.Pos(name)
		if err != nil {
			return "", fmt.Errorf("%w (input %d of %q)", err, i, filter)
		}
		ins[i] = p
	}
	p, err := n.AddFilterAt(prim, ins...)
	if err != nil {
		return "", err
	}
	return n.Nodes()[p].ID, nil
}

// AddDecompose adds a selection of component comp of the named
// vector-valued node and returns its ID.
func (n Net) AddDecompose(input string, comp int) (string, error) {
	p, err := n.Pos(input)
	if err == nil {
		p, err = n.AddDecomposeAt(p, comp)
	}
	if err != nil {
		return "", err
	}
	return n.Nodes()[p].ID, nil
}

// Alias binds name to the node whose ID or alias is id.
func (n Net) Alias(name, id string) error {
	p, err := n.Pos(id)
	if err != nil {
		return err
	}
	return n.AliasAt(name, p)
}

// SetOutput makes the named node the network's one sink.
func (n Net) SetOutput(name string) error {
	p, err := n.Pos(name)
	if err != nil {
		return err
	}
	return n.SetRootsAt(p)
}
