package passes

import (
	"dfg/internal/dataflow"
	"dfg/internal/kernels"
)

// ConstFold returns the constant-folding pass: every elementwise node
// whose inputs are all constants is rewritten in place into a constant.
// The fold runs the primitive's own lane body — the one every strategy
// executes — on one-element lanes, so the folded value is bit-identical
// to what any strategy would have computed in float32, including the
// fmin/fmax NaN conventions and comparison-to-1.0/0.0 encodings.
func ConstFold() Pass { return constFold{} }

type constFold struct{}

func (constFold) Name() string { return "constfold" }

func (constFold) Run(nw *dataflow.Network, st *Stats) error {
nodes:
	for _, n := range nw.Nodes() {
		p, ok := kernels.Lookup(n.Filter)
		if !ok || len(n.Inputs) != p.Arity {
			continue
		}
		for _, id := range n.Inputs {
			if c := nw.NodeByID(id); c == nil || c.Filter != "const" {
				continue nodes
			}
		}
		in := make([][]float32, len(n.Inputs))
		for i, id := range n.Inputs {
			in[i] = []float32{float32(nw.NodeByID(id).Value)}
		}
		// The stored value is the float32 result widened to float64, so a
		// constant of the folded node reproduces the exact bits the
		// eliminated primitive would have written.
		var out [1]float32
		p.Apply(out[:], in)
		// Rewriting in place (rather than merging into an existing
		// const) keeps this pass purely local; the following CSE or
		// constpool round merges equal constants, and DCE collects the
		// operand constants that just lost their last consumer.
		if err := nw.RewriteToConst(n.ID, float64(out[0])); err != nil {
			return err
		}
		st.Rewritten++
	}
	return nil
}

// Algebraic returns the identity-simplification pass: x*1, 1*x, x+0,
// 0+x, x-0, x/1 forward to x, and 0*x / x*0 forward to the zero
// constant. Constants are matched on their float32 value (the precision
// every kernel computes in), so 1.0000000001 does not match.
//
// The zero rewrites assume finite data: 0*x is exactly 0 for finite x
// but NaN for infinite x. The engine's data model (float32 mesh fields)
// makes non-finite intermediates an error condition already, and the
// differential tests skip elements where the Paper-level reference is
// non-finite.
func Algebraic() Pass { return algebraic{} }

type algebraic struct{}

func (algebraic) Name() string { return "algebraic" }

func (algebraic) Run(nw *dataflow.Network, st *Stats) error {
	remap := make(map[string]string)
	var dead []string
	resolve := func(id string) string {
		for {
			r, ok := remap[id]
			if !ok {
				return id
			}
			id = r
		}
	}
	isConst := func(id string, v float32) bool {
		n := nw.NodeByID(id)
		return n != nil && n.Filter == "const" && float32(n.Value) == v
	}
	for _, n := range nw.Nodes() {
		// Forward substitution in construction order, like CSE: inputs
		// are canonical before the node itself is inspected.
		for i, in := range n.Inputs {
			n.Inputs[i] = resolve(in)
		}
		if len(n.Inputs) != 2 {
			continue
		}
		a, b := n.Inputs[0], n.Inputs[1]
		target := ""
		switch n.Filter {
		case "mul":
			switch {
			case isConst(a, 1):
				target = b
			case isConst(b, 1):
				target = a
			case isConst(a, 0):
				target = a
			case isConst(b, 0):
				target = b
			}
		case "add":
			switch {
			case isConst(a, 0):
				target = b
			case isConst(b, 0):
				target = a
			}
		case "sub":
			if isConst(b, 0) {
				target = a
			}
		case "div":
			if isConst(b, 1) {
				target = a
			}
		}
		if target == "" {
			continue
		}
		remap[n.ID] = target
		dead = append(dead, n.ID)
	}
	return applyMerge(nw, st, remap, dead)
}
