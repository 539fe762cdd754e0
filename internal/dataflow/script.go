package dataflow

import (
	"fmt"
	"strings"
)

// Script renders the network as the sequence of network-definition API
// calls that would rebuild it — the paper's optional "Python script that
// outlines all API calls, which can be inspected by the user". The
// emitted text mirrors the original framework's Python flavour.
func (nw *Network) Script() string {
	var b strings.Builder
	b.WriteString("# dataflow network specification (generated)\n")
	b.WriteString("net = dfg.Network()\n")
	for _, n := range nw.nodes {
		switch n.Filter {
		case "source":
			fmt.Fprintf(&b, "net.add_source(%q)\n", n.ID)
		case "const":
			fmt.Fprintf(&b, "%s = net.add_const(%g)\n", n.ID, n.Value)
		case "decompose":
			fmt.Fprintf(&b, "%s = net.add_decompose(%q, %d)\n", n.ID, nw.nodes[n.Inputs[0]].ID, n.Comp)
		default:
			args := make([]string, 0, len(n.Inputs)+1)
			args = append(args, fmt.Sprintf("%q", n.Filter))
			for _, in := range n.Inputs {
				args = append(args, fmt.Sprintf("%q", nw.nodes[in].ID))
			}
			fmt.Fprintf(&b, "%s = net.add_filter(%s)\n", n.ID, strings.Join(args, ", "))
		}
	}
	for _, a := range nw.Aliases() {
		fmt.Fprintf(&b, "net.alias(%q, %q)\n", a[0], a[1])
	}
	if out := nw.Output(); out != "" {
		fmt.Fprintf(&b, "net.set_output(%q)\n", out)
	}
	return b.String()
}

// Dot renders the live network in Graphviz DOT form — the layout behind
// the paper's Figure 4 illustration of the Q-criterion network. Sources
// are boxes, filters are ellipses, the output node is doubled.
func (nw *Network) Dot() string {
	var b strings.Builder
	b.WriteString("digraph dataflow {\n  rankdir=TB;\n")
	order, err := nw.TopoOrder()
	if err != nil {
		// Fall back to every node if no output is set.
		order = nw.nodes
	}
	names := make(map[string]string, len(nw.aliases))
	for _, a := range nw.Aliases() {
		names[a[1]] = a[0]
	}
	for _, n := range order {
		label := n.Filter
		switch n.Filter {
		case "source":
			label = n.ID
		case "const":
			label = fmt.Sprintf("%g", n.Value)
		case "decompose":
			label = fmt.Sprintf("[%d]", n.Comp)
		}
		if user, ok := names[n.ID]; ok {
			label += "\\n" + user
		}
		shape := "ellipse"
		if n.Filter == "source" || n.Filter == "const" {
			shape = "box"
		}
		peripheries := 1
		if n.ID == nw.Output() {
			peripheries = 2
		}
		fmt.Fprintf(&b, "  %q [label=%q, shape=%s, peripheries=%d];\n", n.ID, label, shape, peripheries)
		for _, in := range n.Inputs {
			fmt.Fprintf(&b, "  %q -> %q;\n", nw.nodes[in].ID, n.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
