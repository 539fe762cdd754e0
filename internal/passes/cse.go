package passes

import (
	"math"
	"slices"

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
	first := make(map[uint64]int32) // a constant's bits -> its first position
	to := keepAll(nw, st)
	for i, n := range nw.Nodes() {
		if n.Filter != "const" {
			continue
		}
		bits := math.Float64bits(n.Value)
		if j, ok := first[bits]; ok {
			to[i] = j
			continue
		}
		first[bits] = int32(i)
	}
	return compact(nw, st, to)
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

// positions returns st's position scratch, one entry per node of nw,
// for a pass to fill: a pipeline run's passes share one.
func positions(nw *dataflow.Network, st *Stats) []int32 {
	n := nw.Len()
	st.to = slices.Grow(st.to[:0], chainRoom(n))[:n]
	return st.to
}

// chainRoom is the room the run's position slice holds from its first
// use: the positions and, behind them, eliminate's chains (heads by
// input, heads by constant bucket, next). No pass adds nodes, so the
// first sizing serves the whole run.
func chainRoom(n int) int { return 4*n + 1 }

// keepAll returns the compaction that keeps every node of nw where it
// is; a pass marks the nodes it merges or deletes in it.
func keepAll(nw *dataflow.Network, st *Stats) []int32 {
	to := positions(nw, st)
	for i := range to {
		to[i] = int32(i)
	}
	return to
}

// compact commits a pass's merges and deletions (Network.Compact's to)
// and records the nodes that leave.
func compact(nw *dataflow.Network, st *Stats, to []int32) error {
	leave := 0
	for i, t := range to {
		if t != int32(i) {
			leave++
		}
	}
	if leave == 0 {
		return nil
	}
	if cap(st.Removed)-len(st.Removed) < leave {
		// No pass adds nodes, so room for every node left is room for
		// the rest of the run's removals.
		st.Removed = slices.Grow(st.Removed, nw.Len())
	}
	for i, n := range nw.Nodes() {
		if to[i] != int32(i) {
			st.Removed = append(st.Removed, n.ID)
		}
	}
	return nw.Compact(to)
}
