// Package kernels is the framework's library of derived-field primitive
// building blocks, shared by all execution strategies, exactly as in the
// paper. Each scalar-in/scalar-out primitive is written once, as one row
// of the table below: its name, its OpenCL C expression and the
// executable lane body (lanes.go) that computes what the expression
// says. Everything else reads the row: ForFilter wraps it as the
// standalone kernel roundtrip and staged dispatch, the fusion generator
// (internal/codegen) renders the expression, internal/vm's executor runs
// the lane body block by block, and internal/passes folds constants
// through it. The structural primitives — constant fill, decompose, norm
// and the gradient stencil (grad3d.go) — have dedicated constructors.
package kernels

import (
	"fmt"
	"math"
	"strings"

	"dfg/internal/ocl"
)

// Costs per element for the simulated device's timing model.
var (
	costBinary    = ocl.Cost{Flops: 1, LoadBytes: 8, StoreBytes: 4}
	costUnary     = ocl.Cost{Flops: 2, LoadBytes: 4, StoreBytes: 4}
	costSelect    = ocl.Cost{Flops: 1, LoadBytes: 12, StoreBytes: 4}
	costDecompose = ocl.Cost{Flops: 0, LoadBytes: 16, StoreBytes: 4}
	costConstFill = ocl.Cost{Flops: 0, LoadBytes: 0, StoreBytes: 4}
	// grad3d: three axes of neighbour loads plus coordinate lookups and
	// a float4 store.
	costGrad3D = ocl.Cost{Flops: 15, LoadBytes: 40, StoreBytes: 16}
)

// GradCost exposes the gradient's per-element cost to the fusion
// generator, which sums primitive costs when composing kernels.
func GradCost() ocl.Cost { return costGrad3D }

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

// standalone wraps a table row as the kernel roundtrip and staged
// dispatch: the expression over a[gid], b[gid], c[gid], and the lane
// body over each launch range. Buffers: the operands, then out.
func (p *Primitive) standalone() *ocl.Kernel {
	arity := p.Arity
	var src strings.Builder
	fmt.Fprintf(&src, "// dfg primitive: %[1]s\n__kernel void k%[1]s(", p.Name)
	operands := make([]any, arity)
	for i, name := range []string{"a", "b", "c"}[:arity] {
		fmt.Fprintf(&src, "__global const float *%s,\n    ", name)
		operands[i] = name + "[gid]"
	}
	fmt.Fprintf(&src, "__global float *out)\n{\n    int gid = get_global_id(0);\n    out[gid] = "+p.Expr+";\n}\n", operands...)
	return &ocl.Kernel{
		Name:    "k" + p.Name,
		Source:  src.String(),
		NumBufs: arity + 1,
		Cost:    [...]ocl.Cost{1: costUnary, 2: costBinary, 3: costSelect}[arity],
		Fn: func(lo, hi int, bufs []ocl.View, _ []float64) {
			var in [3][]float32
			for i := range in[:arity] {
				in[i] = bufs[i].Data[lo:hi]
			}
			p.Apply(bufs[arity].Data[lo:hi], in[:arity])
		},
	}
}

// Decompose builds the component-selection kernel used by the staged
// strategy to move one lane of a vector-typed intermediate into a scalar
// array on the device. Buffers: in (vector-typed), out (scalar).
// Scalars: [0] = component index.
func Decompose() *ocl.Kernel {
	return &ocl.Kernel{
		Name: "kdecompose",
		Source: `// dfg primitive: decompose (vector component selection)
__kernel void kdecompose(__global const float4 *a,
                         __global float *out,
                         const int comp)
{
    int gid = get_global_id(0);
    float4 v = a[gid];
    switch (comp) {
    case 0: out[gid] = v.s0; break;
    case 1: out[gid] = v.s1; break;
    case 2: out[gid] = v.s2; break;
    default: out[gid] = v.s3; break;
    }
}
`,
		NumBufs: 2,
		Cost:    costDecompose,
		Fn: func(lo, hi int, bufs []ocl.View, scalars []float64) {
			in, out := bufs[0], bufs[1].Data
			comp := int(scalars[0])
			w := in.Width
			for i := lo; i < hi; i++ {
				out[i] = in.Data[i*w+comp]
			}
		},
	}
}

// ConstFill builds the device fill kernel the staged strategy uses to
// realize a constant source without a host transfer. Buffers: out.
// Scalars: [0] = the constant.
func ConstFill() *ocl.Kernel {
	return &ocl.Kernel{
		Name: "kconst_fill",
		Source: `// dfg primitive: constant source fill
__kernel void kconst_fill(__global float *out, const float value)
{
    out[get_global_id(0)] = value;
}
`,
		NumBufs: 1,
		Cost:    costConstFill,
		Fn: func(lo, hi int, bufs []ocl.View, scalars []float64) {
			out := bufs[0].Data
			v := float32(scalars[0])
			for i := lo; i < hi; i++ {
				out[i] = v
			}
		},
	}
}

// ForFilter returns a fresh standalone kernel for the named dataflow
// primitive, or an error for names with no standalone kernel (sources
// have no kernel; decompose and const have dedicated constructors but
// are also returned here for convenience).
func ForFilter(name string) (*ocl.Kernel, error) {
	if p, ok := primitiveByName[name]; ok {
		return p.standalone(), nil
	}
	switch name {
	case "norm":
		return Norm(), nil
	case "decompose":
		return Decompose(), nil
	case "const":
		return ConstFill(), nil
	case "grad3d":
		return Grad3D(), nil
	}
	if axis, ok := GradAxisOf(name); ok {
		return GradAxis(axis), nil
	}
	return nil, fmt.Errorf("kernels: no standalone kernel for filter %q", name)
}

// Norm builds the vector-length kernel over a vector-typed value's
// leading three lanes (the paper's intro sketches norm(grad(b))).
// Buffers: in (vector-typed), out (scalar).
func Norm() *ocl.Kernel {
	return &ocl.Kernel{
		Name: "knorm",
		Source: `// dfg primitive: norm (vector length of the leading 3 lanes)
__kernel void knorm(__global const float4 *a, __global float *out)
{
    int gid = get_global_id(0);
    float4 v = a[gid];
    out[gid] = sqrt(v.s0*v.s0 + v.s1*v.s1 + v.s2*v.s2);
}
`,
		NumBufs: 2,
		Cost:    ocl.Cost{Flops: 6, LoadBytes: 16, StoreBytes: 4},
		Fn: func(lo, hi int, bufs []ocl.View, _ []float64) {
			in, out := bufs[0], bufs[1].Data
			w := in.Width
			for i := lo; i < hi; i++ {
				// What the source says: float squares, summed left to
				// right in float, and a correctly rounded sqrtf. The
				// conversion rounds each product, so no FMA contracts it.
				var s float32
				for c := 0; c < 3 && c < w; c++ {
					v := in.Data[i*w+c]
					s += float32(v * v)
				}
				out[i] = float32(math.Sqrt(float64(s)))
			}
		},
	}
}
