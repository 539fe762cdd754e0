package kernels

import "fmt"

// The fused rows are the executor's superinstructions: short chains of
// primitive rows that internal/vm's peephole finds in a pass — each
// intermediate read once, by the next operation of the chain — and runs
// as one instruction, so the intermediates stay in vector registers
// instead of round-tripping through the register slab. That is the
// paper's kernel fusion (Section III-C.3) one level down, as DaCe's map
// fusion and MIRGE's array-expression fusion do it. The rows are not
// dataflow filters and not rows of Primitives(): the registry, the
// rendered OpenCL C and the executor's opcode numbering never see them.
//
// A row adds no arithmetic of its own. Steps records which primitive rows
// it composes and how their operands are wired. The AVX2 body
// (lanes_amd64.s) issues the same VADDPS/VSUBPS/VMULPS in the same
// operand order — never an FMA, so every operation rounds once, and
// x86 returns the first operand's NaN payload, so the order is part of
// the result. Everywhere else — without AVX2, and over a lane's last
// len(dst)%8 elements — the row runs its primitives' lane bodies in step
// order. Either way it computes the unfused instructions' bits.

// Fused is one row of the fused table.
type Fused struct {
	Name string
	// Inputs is the number of operands the row reads.
	Inputs int
	// Steps is the composition in evaluation order; the last step's
	// value is the row's. Every other step is read by exactly one later
	// step (a square reads it as both operands).
	Steps []FusedStep

	// vector is the AVX2 body over the first n elements, n a multiple of
	// 8, from inputs a, b, ... (nil past Inputs).
	vector func(n uint, dst, a, b, c, d *float32)
	// inTmp has bit j set when the composed body keeps step j's value in
	// tmp rather than dst: a step overwrites dst unless dst still holds a
	// value a later step reads. The last step lands in dst.
	inTmp uint8
	// prims holds each step's primitive row.
	prims []*Primitive
}

// FusedStep applies the binary primitive row Prim to two operands.
type FusedStep struct {
	Prim string
	Args [2]Ref
}

// Ref is a step operand: the row's input i (Ref(i), i >= 0) or the value
// of step j (Ref(-1-j)).
type Ref int8

// arg and of spell the two kinds of Ref in the table.
func arg(i int) Ref { return Ref(i) }
func of(j int) Ref  { return Ref(-1 - j) }

// Step returns the step a Ref refers to; ok is false for an input.
func (r Ref) Step() (j int, ok bool) { return -1 - int(r), r < 0 }

// fusedRows is the table, in the order the executor's peephole tries the
// rows at an instruction: longer chains first. The first four are
// Q-criterion's strain and rotation terms, (0.5·(a ± b))², standalone and
// into the sum that accumulates them; the last two are the sums of
// products (a·a + b·b, x + a·a) of velocity and vorticity magnitude and
// the squares that feed Q-criterion's sums.
var fusedRows = []Fused{
	{Name: "acc_sq_sum", Inputs: 4, vector: accSqSumAVX2, Steps: []FusedStep{ // x + (c·(a+b))², in = a, b, c, x
		{"add", [2]Ref{arg(0), arg(1)}}, {"mul", [2]Ref{arg(2), of(0)}}, {"mul", [2]Ref{of(1), of(1)}}, {"add", [2]Ref{arg(3), of(2)}},
	}},
	{Name: "acc_sq_diff", Inputs: 4, vector: accSqDiffAVX2, Steps: []FusedStep{ // x + (c·(a−b))²
		{"sub", [2]Ref{arg(0), arg(1)}}, {"mul", [2]Ref{arg(2), of(0)}}, {"mul", [2]Ref{of(1), of(1)}}, {"add", [2]Ref{arg(3), of(2)}},
	}},
	{Name: "sq_sum", Inputs: 3, vector: sqSumAVX2, Steps: []FusedStep{ // (c·(a+b))²
		{"add", [2]Ref{arg(0), arg(1)}}, {"mul", [2]Ref{arg(2), of(0)}}, {"mul", [2]Ref{of(1), of(1)}},
	}},
	{Name: "sq_diff", Inputs: 3, vector: sqDiffAVX2, Steps: []FusedStep{ // (c·(a−b))²
		{"sub", [2]Ref{arg(0), arg(1)}}, {"mul", [2]Ref{arg(2), of(0)}}, {"mul", [2]Ref{of(1), of(1)}},
	}},
	{Name: "dot2", Inputs: 4, vector: dot2AVX2, inTmp: 1 << 1, Steps: []FusedStep{ // a·b + c·d
		{"mul", [2]Ref{arg(0), arg(1)}}, {"mul", [2]Ref{arg(2), arg(3)}}, {"add", [2]Ref{of(0), of(1)}},
	}},
	{Name: "acc_mul", Inputs: 3, vector: accMulAVX2, Steps: []FusedStep{ // x + a·b, in = a, b, x
		{"mul", [2]Ref{arg(0), arg(1)}}, {"add", [2]Ref{arg(2), of(0)}},
	}},
}

// FusedRows returns the table, in the order the peephole tries it.
// Callers must not modify it.
func FusedRows() []Fused { return fusedRows }

// Apply sets dst to the row's value over len(dst) elements. in holds the
// row's Inputs operands, each at least len(dst) long (a short one panics
// before anything is stored), and tmp is scratch of at least len(dst)
// elements. Unlike a primitive's lane body, the composed body keeps
// intermediates in dst and tmp, so dst and tmp must not overlap each
// other or any input; inputs may overlap each other.
func (r *Fused) Apply(dst, tmp []float32, in *[4][]float32) {
	n := len(dst)
	if n == 0 {
		return
	}
	var at [4]*float32
	for k := range in[:r.Inputs] {
		at[k] = &in[k][:n][0]
	}
	v := int(vectorLen(n))
	if v > 0 {
		r.vector(uint(v), &dst[0], at[0], at[1], at[2], at[3])
	}
	if v < n {
		r.compose(dst[v:], tmp[v:n], in, v)
	}
}

// compose runs the steps' primitive lane bodies in order over inputs
// in[k][lo:], each step's value in dst or tmp.
func (r *Fused) compose(dst, tmp []float32, in *[4][]float32, lo int) {
	place := func(j int) []float32 {
		if r.inTmp&(1<<j) != 0 {
			return tmp
		}
		return dst
	}
	for j, s := range r.Steps {
		var ops [2][]float32
		for k, ref := range s.Args {
			if i, ok := ref.Step(); ok {
				ops[k] = place(i)
			} else {
				ops[k] = in[ref][lo:]
			}
		}
		r.prims[j].Binary(place(j), ops[0], ops[1])
	}
}

// init resolves each step's primitive row. A wrong wiring or placement in
// the table fails TestFusedRowsMatchComposition.
func init() {
	for i := range fusedRows {
		r := &fusedRows[i]
		r.prims = make([]*Primitive, len(r.Steps))
		for j, s := range r.Steps {
			p, ok := primitiveByName[s.Prim]
			if !ok || p.Arity != 2 {
				panic(fmt.Sprintf("kernels: fused row %s: step %d: %q is not a binary primitive", r.Name, j, s.Prim))
			}
			r.prims[j] = p
		}
	}
}
