package passes

import (
	"math"

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
	nodes := nw.Nodes()
next:
	for i, n := range nodes {
		if len(n.Inputs) == 0 {
			continue
		}
		for _, in := range n.Inputs {
			if nodes[in].Filter != "const" {
				continue next
			}
		}
		p, ok := kernels.Lookup(n.Filter)
		if !ok || len(n.Inputs) != p.Arity {
			continue
		}
		in := make([][]float32, len(n.Inputs))
		for k, j := range n.Inputs {
			in[k] = []float32{float32(nodes[j].Value)}
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
		nw.RewriteToConst(int32(i), float64(out[0]))
		st.Rewritten++
	}
	return nil
}

// Algebraic returns the identity-simplification pass: a binary node
// with one of the identity constants below as an operand forwards to
// its other operand x. Every row is exact under IEEE 754 for every x —
// ±0, ±Inf, NaN and denormals included (TestAlgebraicRulesExact runs
// each through the lane bodies) — with one caveat: the arithmetic
// quiets a signalling NaN x and forwarding x does not, so O2 returns
// such an x still signalling where Paper returns it quieted (same NaN
// class, different bits). Rules that hold only for finite data are not
// rows: x*0 is NaN for infinite x and −0 for negative x, and x + (+0)
// or x − (−0) is +0 for x = −0.
func Algebraic() Pass { return algebraic{} }

// identity is one row: filter(x, c) (side 1) or filter(c, x) (side 0)
// forwards to x when the constant c has exactly these float32 bits —
// matched by bits, not by ==, which would confuse −0 with +0.
type identity struct {
	filter string
	side   int
	bits   uint32
}

const (
	bitsPosZero = 0x00000000
	bitsNegZero = 0x80000000
	bitsOne     = 0x3f800000
)

var identities = []identity{
	{"mul", 1, bitsOne}, {"mul", 0, bitsOne},
	{"div", 1, bitsOne},
	{"add", 1, bitsNegZero}, {"add", 0, bitsNegZero},
	{"sub", 1, bitsPosZero},
}

type algebraic struct{}

func (algebraic) Name() string { return "algebraic" }

func (algebraic) Run(nw *dataflow.Network, st *Stats) error {
	nodes := nw.Nodes()
	to := keepAll(nw, st)
	for i, n := range nodes {
		if len(n.Inputs) != 2 {
			continue
		}
		// Forward substitution in construction order, like CSE: to[in] is
		// an input's canonical node before the node itself is inspected.
		for _, r := range identities {
			if r.filter != n.Filter {
				continue
			}
			if c := nodes[to[n.Inputs[r.side]]]; c.Filter == "const" && math.Float32bits(float32(c.Value)) == r.bits {
				to[i] = to[n.Inputs[1-r.side]]
				break
			}
		}
	}
	return compact(nw, st, to)
}
