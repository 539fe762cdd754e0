package vm_test

import (
	"math"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/vm"
	"dfg/internal/vm/vmtest"
	"dfg/internal/vortex"
)

// TestExecutorMatchesReference is the package-level smoke of the
// differential the strategy fuzz harness drives at scale: the blocked
// executor over allocated lanes and the per-element reference over the
// virtual registers agree bitwise, one pass and two.
func TestExecutorMatchesReference(t *testing.T) {
	src, n := vm.MeshSources(t, mesh.Dims{NX: 11, NY: 9, NZ: 7}) // 693: a full block and a partial one
	for _, text := range []string{
		vortex.QCritExpr,
		vortex.VortMagExpr,
		"s = u*u + v\nr = norm(grad3d(s, dims, x, y, z)) - s",
	} {
		net, err := expr.Compile(text)
		if err != nil {
			t.Fatal(err)
		}
		low, err := vm.Lower(net)
		if err != nil {
			t.Fatal(err)
		}
		got, err := low.Program().Run(n, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		views := make([]ocl.View, len(low.Buffers))
		for i, b := range low.Buffers {
			data := make([]float32, n*b.Width)
			if b.Kind == vm.BufSource {
				data, _ = src(b.Name)
			}
			views[i] = ocl.View{Data: data, Elems: n, Width: b.Width}
		}
		vmtest.Reference(low, n, views)
		want := views[len(views)-1].Data
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("element %d: executor %v, reference %v\n%s", i, got[i], want[i], text)
			}
		}
	}
}
