package dataflow

import "encoding/json"

// jsonSpec is the on-wire form of a network specification: the parser's
// output can be saved or shipped to another process (the original system
// passed specifications from the Python front end to the execution
// layer); the pass goldens are captured in it.
type jsonSpec struct {
	Nodes   []jsonNode        `json:"nodes"`
	Aliases map[string]string `json:"aliases,omitempty"`
	Output  string            `json:"output,omitempty"`
}

// jsonNode mirrors Node with omit-empty encoding.
type jsonNode struct {
	ID     string   `json:"id"`
	Filter string   `json:"filter"`
	Inputs []string `json:"inputs,omitempty"`
	Value  float64  `json:"value,omitempty"`
	Comp   int      `json:"comp,omitempty"`
	Width  int      `json:"width"`
}

// MarshalJSON encodes the network specification.
func (nw *Network) MarshalJSON() ([]byte, error) {
	spec := jsonSpec{Output: nw.Output()}
	for _, n := range nw.nodes {
		var ins []string
		for _, in := range n.Inputs {
			ins = append(ins, nw.nodes[in].ID)
		}
		spec.Nodes = append(spec.Nodes, jsonNode{
			ID: n.ID, Filter: n.Filter, Inputs: ins,
			Value: n.Value, Comp: n.Comp, Width: n.Width,
		})
	}
	if aliases := nw.Aliases(); len(aliases) > 0 {
		spec.Aliases = make(map[string]string, len(aliases))
		for _, a := range aliases {
			spec.Aliases[a[0]] = a[1]
		}
	}
	return json.Marshal(spec)
}
