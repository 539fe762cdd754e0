// Package kernels is the framework's library of derived-field primitive
// building blocks, shared by all execution strategies, exactly as in the
// paper. Each scalar-in/scalar-out primitive is written once, as one row
// of the table below: its name, its OpenCL C expression and the
// executable lane body (lanes.go) that computes what the expression
// says. Everything else reads the row: internal/vm's executor runs the
// lane body block by block — in a fused kernel's passes and in the node
// kernels staged and roundtrip launch, one pass per node alike — the
// source renderer (internal/codegen) spells the expression, and
// internal/passes folds constants through it. The gradient stencil is
// grad3d.go: its shared OpenCL C functions, its row walker and its
// per-element oracle.
package kernels

import "math"

// Primitive is one scalar-in/scalar-out primitive: a pure per-element
// function of Arity scalar operands.
type Primitive struct {
	Name  string
	Arity int
	// Expr is the OpenCL C expression, with one %s per operand in
	// operand order. It is the contract: the lane body computes what a
	// real OpenCL runtime would compile this text to.
	Expr string
	// The lane body, dst[e] = f(a[e], ...) over len(dst) elements, in
	// the field of the primitive's arity; the other two are nil. dst may
	// be any of the operands (see lanes.go).
	Unary   func(dst, a []float32)
	Binary  func(dst, a, b []float32)
	Ternary func(dst, a, b, c []float32)
}

// Apply runs the lane body over len(dst) elements of the operands in,
// which holds Arity of them (fewer panics on the index).
func (p *Primitive) Apply(dst []float32, in [][]float32) {
	switch p.Arity {
	case 1:
		p.Unary(dst, in[0])
	case 2:
		p.Binary(dst, in[0], in[1])
	default:
		p.Ternary(dst, in[0], in[1], in[2])
	}
}

// primitives is the table. dataflow's registry specifies the same names
// with the same arities (a test pins the two row for row); internal/vm
// numbers its elementwise opcodes by row index.
var primitives = []Primitive{
	{Name: "add", Arity: 2, Expr: "(%s + %s)", Binary: addLanes},
	{Name: "sub", Arity: 2, Expr: "(%s - %s)", Binary: subLanes},
	{Name: "mul", Arity: 2, Expr: "(%s * %s)", Binary: mulLanes},
	{Name: "div", Arity: 2, Expr: "(%s / %s)", Binary: divLanes},
	{Name: "min", Arity: 2, Expr: "fmin(%s, %s)", Binary: minLanes},
	{Name: "max", Arity: 2, Expr: "fmax(%s, %s)", Binary: maxLanes},
	{Name: "sqrt", Arity: 1, Expr: "sqrt(%s)", Unary: sqrtLanes},
	{Name: "neg", Arity: 1, Expr: "(-%s)", Unary: negLanes},
	{Name: "abs", Arity: 1, Expr: "fabs(%s)", Unary: absLanes},
	{Name: "gt", Arity: 2, Expr: "((%s > %s) ? 1.0f : 0.0f)", Binary: cmpLanes(0, 0, 1, 0)},
	{Name: "lt", Arity: 2, Expr: "((%s < %s) ? 1.0f : 0.0f)", Binary: cmpLanes(1, 0, 0, 0)},
	{Name: "ge", Arity: 2, Expr: "((%s >= %s) ? 1.0f : 0.0f)", Binary: cmpLanes(0, 1, 1, 0)},
	{Name: "le", Arity: 2, Expr: "((%s <= %s) ? 1.0f : 0.0f)", Binary: cmpLanes(1, 1, 0, 0)},
	{Name: "eq", Arity: 2, Expr: "((%s == %s) ? 1.0f : 0.0f)", Binary: cmpLanes(0, 1, 0, 0)},
	{Name: "ne", Arity: 2, Expr: "((%s != %s) ? 1.0f : 0.0f)", Binary: cmpLanes(1, 0, 1, 1)},
	{Name: "select", Arity: 3, Expr: "((%s != 0.0f) ? %s : %s)", Ternary: selectLanes},
	{Name: "exp", Arity: 1, Expr: "exp(%s)", Unary: mapLanes(math.Exp)},
	{Name: "log", Arity: 1, Expr: "log(%s)", Unary: mapLanes(math.Log)},
	{Name: "sin", Arity: 1, Expr: "sin(%s)", Unary: mapLanes(math.Sin)},
	{Name: "cos", Arity: 1, Expr: "cos(%s)", Unary: mapLanes(math.Cos)},
	{Name: "pow", Arity: 2, Expr: "pow(%s, %s)", Binary: powLanes},
}

var primitiveByName = func() map[string]*Primitive {
	m := make(map[string]*Primitive, len(primitives))
	for i := range primitives {
		m[primitives[i].Name] = &primitives[i]
	}
	return m
}()

// Primitives returns the table, in row order. Callers must not modify it.
func Primitives() []Primitive { return primitives }

// Lookup returns the named primitive's row; ok is false for the
// structural primitives and for non-computational nodes.
func Lookup(name string) (*Primitive, bool) {
	p, ok := primitiveByName[name]
	return p, ok
}
