package strategy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dfg/internal/kernels"
	"dfg/internal/mesh"
)

// meshDerived caches the arrays BindMesh derives from a mesh: the dims
// array and the three problem-sized cell-center coordinate fields.
type meshDerived struct {
	dims, x, y, z []float32
}

// meshDerivedCache memoizes derived coordinate arrays per *mesh.Mesh,
// so repeated evaluations over one mesh (the in-situ pattern: one mesh,
// many timesteps) stop paying O(cells) setup per call. Meshes must not
// be mutated after their first BindMesh — the same immutability
// contract sealed networks already carry.
//
// The cache is keyed by pointer identity and bounded: a host juggling
// more than meshCacheLimit live meshes wholesale-resets it (derived
// arrays are recomputable; a reset only costs the next call's setup).
var (
	meshDerivedCache sync.Map // *mesh.Mesh -> *meshDerived
	meshCacheSize    atomic.Int64
)

const meshCacheLimit = 64

// derivedFor returns the mesh's memoized derived arrays, computing them
// on first use.
func derivedFor(m *mesh.Mesh) *meshDerived {
	if v, ok := meshDerivedCache.Load(m); ok {
		return v.(*meshDerived)
	}
	x, y, z := m.CellCenterFields()
	d := &meshDerived{
		dims: kernels.DimsArray(m.Dims.NX, m.Dims.NY, m.Dims.NZ),
		x:    x, y: y, z: z,
	}
	if _, loaded := meshDerivedCache.LoadOrStore(m, d); !loaded {
		if meshCacheSize.Add(1) > meshCacheLimit {
			meshDerivedCache.Range(func(k, _ any) bool {
				meshDerivedCache.Delete(k)
				return true
			})
			meshCacheSize.Store(0)
			meshDerivedCache.Store(m, d)
			meshCacheSize.Add(1)
		}
	}
	return d
}

// Bind binds caller arrays by reference, one float32 per element: the
// map is read in place when the plan executes — never copied, never
// written — so binding allocates nothing, which is what a warm
// evaluation wants. With a nil mesh the arrays span n elements. With a
// mesh they span its cells (n is ignored), each field must hold exactly
// one value per cell, and the mesh-derived sources the gradient
// primitive consumes — dims and the per-cell center coordinate arrays x,
// y, z — are bound too. This mirrors what the host application (VisIt,
// in the paper) hands the framework for each sub-grid. Fields win on
// name collisions.
//
// The derived arrays are memoized per mesh (see meshDerivedCache), so
// repeated binds over one mesh share the same backing arrays. Nothing
// writes them after construction, so the bindings remember the memo
// (Bindings.stable) and the arena recognizes those arrays by address,
// keeping them device-resident and skipping their upload.
func Bind(n int, fields map[string][]float32, m *mesh.Mesh) (Bindings, error) {
	if m == nil {
		return Bindings{N: n, fields: fields}, nil
	}
	if err := m.Validate(); err != nil {
		return Bindings{}, err
	}
	n = m.Cells()
	for name, data := range fields {
		if len(data) != n {
			return Bindings{}, fmt.Errorf("strategy: field %q has %d values for a %d-cell mesh", name, len(data), n)
		}
	}
	return Bindings{N: n, fields: fields, derived: derivedFor(m)}, nil
}

// BindMesh is Bind over a mesh made explicit: Sources names every bound
// array — the caller's fields and dims, x, y, z — for callers that list
// or edit the binding.
func BindMesh(m *mesh.Mesh, fields map[string][]float32) (Bindings, error) {
	b, err := Bind(0, fields, m)
	if err != nil {
		return Bindings{}, err
	}
	d := b.derived
	b.Sources = map[string]Source{
		"dims": {Data: d.dims, Width: 1},
		"x":    {Data: d.x, Width: 1},
		"y":    {Data: d.y, Width: 1},
		"z":    {Data: d.z, Width: 1},
	}
	for name, data := range fields {
		b.Sources[name] = Source{Data: data, Width: 1}
	}
	b.fields = nil
	return b, nil
}
