package dataflow

import (
	"slices"
	"strings"
	"testing"

	"dfg/internal/kernels"
)

func TestRegistry(t *testing.T) {
	if len(registry) < 10 {
		t.Fatalf("registry too small: %v", registry)
	}
	// The elementwise primitives are exactly the rows of the kernels'
	// primitive table (which kernels' own tests check row by row), and
	// the others but source are the structural filters codegen's
	// TestEveryFilterHasANodeKernel builds a node kernel for, as it does
	// for every row.
	structural := []string{"const", "decompose", "norm", "grad3d", "grad3dx", "grad3dy", "grad3dz"}
	elementwise := 0
	for name, fi := range registry {
		if name == "source" {
			continue
		}
		if fi.Class != ClassElementwise && !slices.Contains(structural, name) {
			t.Errorf("%q (%v) has no node kernel test", name, fi.Class)
		}
		if _, ok := kernels.Lookup(name); ok != (fi.Class == ClassElementwise) {
			t.Errorf("%q (%v): in the primitive table = %v", name, fi.Class, ok)
		}
		if fi.Class == ClassElementwise {
			elementwise++
		}
	}
	if n := len(kernels.Primitives()); n != elementwise {
		t.Errorf("the primitive table has %d rows, the registry %d elementwise filters", n, elementwise)
	}
	f, ok := Callable("grad3d")
	if fi := f.Info(); !ok || fi.Class != ClassStencil || fi.Arity != 5 || fi.OutWidth != 4 {
		t.Fatalf("grad3d info wrong: %+v", fi)
	}
	if _, ok := Callable("nonsense"); ok {
		t.Fatal("unknown filter must not resolve")
	}
	callable := func(name string) bool { _, ok := Callable(name); return ok }
	if !callable("sqrt") || callable("source") || callable("const") || callable("decompose") {
		t.Fatal("callability classification wrong")
	}
	for _, c := range []Class{ClassSource, ClassConst, ClassElementwise, ClassDecompose, ClassStencil} {
		if c.String() == "" || strings.HasPrefix(c.String(), "Class(") {
			t.Errorf("class %d must have a name", c)
		}
	}
	if !strings.Contains(Class(42).String(), "42") {
		t.Error("unknown class should embed the value")
	}
}
