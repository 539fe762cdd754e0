package codegen

import (
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/dataflow/dftest"
	"dfg/internal/kernels"
	"dfg/internal/ocl"
)

// structural are the registry's filters outside the primitive table;
// dataflow's TestRegistry checks that every other filter but source is a
// row of it.
var structural = []string{"const", "decompose", "norm", "grad3d", "grad3dx", "grad3dy", "grad3dz"}

// everyFilter lists every filter a node kernel computes.
func everyFilter() []string {
	names := append([]string(nil), structural...)
	for _, p := range kernels.Primitives() {
		names = append(names, p.Name)
	}
	return names
}

// nodeOf builds a network holding one node of the filter, over the
// sources u, dims, x, y and z — or over a gradient, for the filters that
// read a vector — and returns the network's nodes and that node.
func nodeOf(t testing.TB, filter string) ([]*dataflow.Node, *dataflow.Node) {
	t.Helper()
	nw := dftest.New()
	var srcs [5]int32
	for i, name := range []string{"u", "dims", "x", "y", "z"} {
		srcs[i], _ = nw.Source(name)
	}
	grad, _ := dataflow.Callable("grad3d")
	var p int32
	var err error
	switch filter {
	case "const":
		p = nw.AddConstAt(2.5)
	case "decompose":
		if p, err = nw.AddFilterAt(grad, srcs[:]...); err == nil {
			p, err = nw.AddDecomposeAt(p, 1)
		}
	case "norm":
		norm, _ := dataflow.Callable("norm")
		if p, err = nw.AddFilterAt(grad, srcs[:]...); err == nil {
			p, err = nw.AddFilterAt(norm, p)
		}
	default:
		f, ok := dataflow.Callable(filter)
		if !ok {
			t.Fatalf("%s is not a filter", filter)
		}
		p, err = nw.AddFilterAt(f, srcs[:f.Info().Arity]...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return nw.Nodes(), nw.Nodes()[p]
}

// TestEveryFilterHasANodeKernel: every filter but source builds a node
// kernel named after it, with one buffer per input and the output, in
// one pass.
func TestEveryFilterHasANodeKernel(t *testing.T) {
	for _, name := range everyFilter() {
		nodes, n := nodeOf(t, name)
		prog, err := BuildNode(nodes, n)
		if err != nil {
			t.Fatal(err)
		}
		k := prog.Kernel
		want := "k" + name
		if name == "const" {
			want = "kconst_fill"
		}
		if k.Name != want || k.NumBufs != len(n.Inputs)+1 || prog.NumPasses != 1 {
			t.Errorf("%s: kernel %q with %d buffers in %d passes, want %q with %d in 1", name, k.Name, k.NumBufs, prog.NumPasses, want, len(n.Inputs)+1)
		}
	}
}

// TestNodeKernelPrices pins what the device model charges per element for
// each filter's node kernel: the prices the paper's staged and roundtrip
// timings (Table II, Figure 5) are modeled from. They are folded from the
// one-node lowering's instructions, as a fused kernel's are: the loads of
// the inputs, the filter's arithmetic and the store of the output. A unary
// primitive is one flop; its 8 bytes of traffic bound it on every device
// spec, so the flop count moves no modeled time.
func TestNodeKernelPrices(t *testing.T) {
	want := map[string]ocl.Cost{
		"decompose": {Flops: 0, LoadBytes: 16, StoreBytes: 4},
		"norm":      {Flops: 6, LoadBytes: 16, StoreBytes: 4},
		"const":     {Flops: 0, LoadBytes: 0, StoreBytes: 4},
		"grad3d":    {Flops: 15, LoadBytes: 40, StoreBytes: 16},
		"grad3dx":   {Flops: 5, LoadBytes: 16, StoreBytes: 4},
		"grad3dy":   {Flops: 5, LoadBytes: 16, StoreBytes: 4},
		"grad3dz":   {Flops: 5, LoadBytes: 16, StoreBytes: 4},
	}
	byArity := [...]ocl.Cost{
		1: {Flops: 1, LoadBytes: 4, StoreBytes: 4},  // unary
		2: {Flops: 1, LoadBytes: 8, StoreBytes: 4},  // binary, comparisons and pow
		3: {Flops: 1, LoadBytes: 12, StoreBytes: 4}, // select
	}
	for _, name := range everyFilter() {
		w, ok := want[name]
		if p, prim := kernels.Lookup(name); prim {
			w, ok = byArity[p.Arity], true
		}
		if !ok {
			t.Fatalf("%s: no price pinned", name)
		}
		nodes, n := nodeOf(t, name)
		prog, err := BuildNode(nodes, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Kernel.Cost; got != w {
			t.Errorf("%s: priced %+v, want %+v", name, got, w)
		}
	}
}

// TestBuildNodeErrors: a source is bound, not computed, and a filter the
// lowering does not know has no kernel.
func TestBuildNodeErrors(t *testing.T) {
	for _, filter := range []string{"source", "bogus", "load", "store"} {
		if _, err := BuildNode(nil, &dataflow.Node{Filter: filter}); err == nil {
			t.Errorf("%s: built a node kernel", filter)
		}
	}
}
