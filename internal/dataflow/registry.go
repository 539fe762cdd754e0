// Package dataflow implements the framework's dataflow network: the
// specification produced by the expression parser and consumed by the
// execution strategies. Networks are "create and connect" pipelines of
// sources, filters and one sink, with topological scheduling and
// reference counting of intermediates — the design described in Section
// III-B of the paper. Constant pooling and the paper's limited common
// sub-expression elimination are passes over it (internal/passes).
package dataflow

import "fmt"

// Class partitions filters by the execution machinery they need. The
// distinction drives Table II's event counts: decompose is free on the
// host (roundtrip) but needs a kernel on the device (staged); constants
// are host-filled buffers (roundtrip), device fill kernels (staged) or
// source literals (fusion); stencil filters need whole global arrays.
type Class int

const (
	// ClassSource is a named input array provided by the host
	// application (a mesh field, coordinate array, or dims descriptor).
	ClassSource Class = iota
	// ClassConst is a scalar constant source.
	ClassConst
	// ClassElementwise is a pure per-element function of its inputs.
	ClassElementwise
	// ClassDecompose selects one component of a vector-typed value.
	ClassDecompose
	// ClassStencil reads neighbouring elements of a global array
	// (grad3d); its array input must live in device global memory.
	ClassStencil
	// ClassVectorOp is a per-element function of one vector-typed value
	// (norm); like decompose, it bridges vector results back to scalars.
	ClassVectorOp
)

// String names the class for diagnostics.
func (c Class) String() string {
	switch c {
	case ClassSource:
		return "source"
	case ClassConst:
		return "const"
	case ClassElementwise:
		return "elementwise"
	case ClassDecompose:
		return "decompose"
	case ClassStencil:
		return "stencil"
	case ClassVectorOp:
		return "vectorop"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// FilterInfo describes one primitive in the building-block library.
type FilterInfo struct {
	Name     string
	Class    Class
	Arity    int // number of input connections
	OutWidth int // float32 components per output element (1, 2 or 4)
	// Radius is how many cells a stencil reads on each side of the one
	// it writes; 0 for every other class.
	Radius int
}

// registry is the library of supported primitives — the paper's "subset
// of operations necessary to support the expressions explored": basic
// math, square root, vector decomposition and the 3-D rectilinear mesh
// field gradient, plus a few cheap extensions (neg, div, min, max, abs).
var registry = map[string]*FilterInfo{
	"source":    {Name: "source", Class: ClassSource, Arity: 0, OutWidth: 1},
	"const":     {Name: "const", Class: ClassConst, Arity: 0, OutWidth: 1},
	"add":       {Name: "add", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"sub":       {Name: "sub", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"mul":       {Name: "mul", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"div":       {Name: "div", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"min":       {Name: "min", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"max":       {Name: "max", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"sqrt":      {Name: "sqrt", Class: ClassElementwise, Arity: 1, OutWidth: 1},
	"neg":       {Name: "neg", Class: ClassElementwise, Arity: 1, OutWidth: 1},
	"abs":       {Name: "abs", Class: ClassElementwise, Arity: 1, OutWidth: 1},
	"decompose": {Name: "decompose", Class: ClassDecompose, Arity: 1, OutWidth: 1},
	// grad3d(field, dims, x, y, z) -> float4 gradient per cell.
	"grad3d": {Name: "grad3d", Class: ClassStencil, Arity: 5, OutWidth: 4, Radius: 1},
	// Single-axis gradients: the same stencil restricted to one lane of
	// the float4 result. The optimiser's decompose-forwarding pass
	// rewrites decompose(grad3d(...), axis) into these; the parser never
	// creates them directly, so Paper-level networks are unaffected.
	"grad3dx": {Name: "grad3dx", Class: ClassStencil, Arity: 5, OutWidth: 1, Radius: 1},
	"grad3dy": {Name: "grad3dy", Class: ClassStencil, Arity: 5, OutWidth: 1, Radius: 1},
	"grad3dz": {Name: "grad3dz", Class: ClassStencil, Arity: 5, OutWidth: 1, Radius: 1},
	// Comparisons produce 1.0 or 0.0, feeding select — the conditional
	// support the paper's introduction example sketches.
	"gt": {Name: "gt", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"lt": {Name: "lt", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"ge": {Name: "ge", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"le": {Name: "le", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"eq": {Name: "eq", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	"ne": {Name: "ne", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	// select(cond, a, b) = cond != 0 ? a : b.
	"select": {Name: "select", Class: ClassElementwise, Arity: 3, OutWidth: 1},
	// Transcendental functions, rounding out the calculator set users
	// of VisIt-style expression languages expect.
	"exp": {Name: "exp", Class: ClassElementwise, Arity: 1, OutWidth: 1},
	"log": {Name: "log", Class: ClassElementwise, Arity: 1, OutWidth: 1},
	"sin": {Name: "sin", Class: ClassElementwise, Arity: 1, OutWidth: 1},
	"cos": {Name: "cos", Class: ClassElementwise, Arity: 1, OutWidth: 1},
	"pow": {Name: "pow", Class: ClassElementwise, Arity: 2, OutWidth: 1},
	// norm(v) = length of a vector-typed value's leading 3 lanes.
	"norm": {Name: "norm", Class: ClassVectorOp, Arity: 1, OutWidth: 1},
}

// The rows of the nodes the builder makes itself.
var sourceRow, constRow, decomposeRow = registry["source"], registry["const"], registry["decompose"]

// Prim is a handle on one primitive's registry row: the builder looks a
// filter up once and adds its nodes by handle (Network.AddFilterAt).
type Prim struct{ info *FilterInfo }

// Info returns the primitive's metadata.
func (p Prim) Info() FilterInfo { return *p.info }

// Callable returns the primitive called name if users may invoke it as
// a function in expressions (sources, consts and decompose are created
// by the parser, not called).
func Callable(name string) (Prim, bool) {
	fi := registry[name]
	return Prim{fi}, fi != nil && fi.Class != ClassSource && fi.Class != ClassConst && fi.Class != ClassDecompose
}
