package passes

import (
	"math"

	"dfg/internal/dataflow"
)

// ConstPool returns the constant-pooling pass: scalar constants with the
// same bits collapse to the first occurrence, exactly as the paper's
// parser pools them. (CSE would merge them too; pooling first keeps the
// pass observable on its own and mirrors the paper's description.)
func ConstPool() Pass { return constPool{} }

type constPool struct{}

func (constPool) Name() string { return "constpool" }

func (constPool) Run(nw *dataflow.Network, st *Stats) error {
	first := make(map[uint64]string) // the bits a key holds for a const
	remap := make(map[string]string)
	var dead []string
	for _, n := range nw.Nodes() {
		if n.Filter != "const" {
			continue
		}
		bits := math.Float64bits(n.Value)
		if id, ok := first[bits]; ok {
			remap[n.ID] = id
			dead = append(dead, n.ID)
			continue
		}
		first[bits] = n.ID
	}
	return applyMerge(nw, st, remap, dead)
}

// CSE returns the paper's "limited" common sub-expression elimination:
// structurally identical invocations (same primitive, same parameters,
// same inputs in the same order) are computed once. Order sensitivity —
// add(a, b) and add(b, a) stay distinct — is what keeps the Table II
// event counts intact, so the Paper pipeline must use exactly this.
func CSE() Pass { return cse{commute: false} }

// CSECommute returns the commutativity-normalised variant: for add,
// mul, eq and ne the two inputs are sorted in the structural key, so
// add(a, b) and add(b, a) merge. Only bitwise-commutative primitives
// participate (fmin/fmax are excluded: their NaN and signed-zero
// behaviour is argument-order dependent).
func CSECommute() Pass { return cse{commute: true} }

type cse struct{ commute bool }

func (c cse) Name() string {
	if c.commute {
		return "cse-commute"
	}
	return "cse"
}

func (c cse) Run(nw *dataflow.Network, st *Stats) error {
	return eliminate(nw, st, c.commute)
}

// applyMerge commits a merge-style pass: redirect every reference
// through remap, drop the duplicates, and record them.
func applyMerge(nw *dataflow.Network, st *Stats, remap map[string]string, dead []string) error {
	if len(dead) == 0 {
		return nil
	}
	nw.ApplyRemap(remap)
	if err := nw.RemoveNodes(dead); err != nil {
		return err
	}
	st.Removed = append(st.Removed, dead...)
	return nil
}
