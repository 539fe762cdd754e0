// Package host simulates the host application side of the paper's
// evaluation — VisIt. The host application owns the data (it "reads the
// data sets from disk"; here, it generates the synthetic RT field),
// passes expression definitions and mesh data fields to the framework
// through the host interface, and renders the derived field the
// framework returns.
//
// Two contracts from the paper's Section III-D are modelled and tested:
//
//   - the pipeline executes once per time step: every subsequent
//     rendering operation (changing the viewpoint, etc.) reuses the
//     resulting mesh, and the pipeline executes again only when the
//     data set changes (a different time step is loaded);
//   - the framework may explicitly request ghost data generation, and
//     the host responds by duplicating a stencil of cells around each
//     sub-grid.
package host

import (
	"fmt"

	"dfg"
	"dfg/internal/mesh"
	"dfg/internal/rtsim"
)

// PythonExpression is the paper's custom VisIt Python Expression: a
// named derived-field definition evaluated by the framework.
type PythonExpression struct {
	// Name is the derived field's name in the pipeline ("q_crit").
	Name string
	// Text is the expression program.
	Text string
}

// App is a simulated visualization host application bound to one
// framework engine (one per MPI task, in the paper's runs).
type App struct {
	engine *dfg.Engine
	mesh   *mesh.Mesh
	seed   int64

	field *rtsim.Field

	exprs []PythonExpression
	// prepared caches each expression's prepared plan (compile + plan
	// once; the arena then keeps buffers and the mesh coordinates
	// device-resident across time steps).
	prepared map[string]*dfg.Prepared
	// derived caches each expression's result for the current time step.
	derived map[string]*dfg.Result
	dirty   bool

	pipelineExecutions int
	renders            int
}

// NewApp creates a host application over a mesh; time step t's data is
// generated deterministically from seed+t.
func NewApp(m *mesh.Mesh, seed int64, engine *dfg.Engine) (*App, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("host: nil engine")
	}
	a := &App{
		engine:   engine,
		mesh:     m,
		seed:     seed,
		prepared: make(map[string]*dfg.Prepared),
		derived:  make(map[string]*dfg.Result),
	}
	a.LoadTimeStep(0)
	return a, nil
}

// AddExpression registers a Python Expression in the pipeline and marks
// the pipeline dirty.
func (a *App) AddExpression(e PythonExpression) error {
	if e.Name == "" || e.Text == "" {
		return fmt.Errorf("host: expression needs a name and text")
	}
	a.exprs = append(a.exprs, e)
	a.dirty = true
	return nil
}

// LoadTimeStep switches the data set to another time step ("reads it
// from disk"), invalidating every cached derived field.
func (a *App) LoadTimeStep(t int) {
	a.field = rtsim.Generate(a.mesh, rtsim.Options{Seed: a.seed + int64(t)})
	a.derived = make(map[string]*dfg.Result)
	a.dirty = true
}

// Field exposes the current time step's velocity data.
func (a *App) Field() *rtsim.Field { return a.field }

// execute runs the pipeline: every registered expression is evaluated by
// the framework against the current time step's arrays. Expressions are
// prepared on their first execution and the plans reused across time
// steps — the framework recompiles nothing when only the data changes,
// and the unchanged mesh-derived sources stay device-resident.
func (a *App) execute() error {
	for _, e := range a.exprs {
		pr, ok := a.prepared[e.Name]
		if !ok || pr.Text() != e.Text {
			if ok {
				pr.Close()
			}
			var err error
			pr, err = a.engine.Prepare(e.Text)
			if err != nil {
				return fmt.Errorf("host: expression %q: %w", e.Name, err)
			}
			a.prepared[e.Name] = pr
		}
		res, err := pr.EvalMesh(a.mesh, map[string][]float32{
			"u": a.field.U, "v": a.field.V, "w": a.field.W,
		})
		if err != nil {
			return fmt.Errorf("host: expression %q: %w", e.Name, err)
		}
		a.derived[e.Name] = res
	}
	a.pipelineExecutions++
	a.dirty = false
	return nil
}

// Close releases every prepared plan; the engine's buffer arena drains
// with the last one, freeing all pooled and device-resident buffers.
func (a *App) Close() {
	for name, pr := range a.prepared {
		pr.Close()
		delete(a.prepared, name)
	}
}

// Render draws the scene from a viewpoint. The first render after a
// data or pipeline change executes the pipeline; subsequent renders
// reuse the computed meshes, matching the paper's execution contract.
// It returns the derived fields available to the renderer.
func (a *App) Render(viewpoint string) (map[string]*dfg.Result, error) {
	if a.dirty {
		if err := a.execute(); err != nil {
			return nil, err
		}
	}
	a.renders++
	return a.derived, nil
}

// PipelineExecutions counts how many times the pipeline actually ran.
func (a *App) PipelineExecutions() int { return a.pipelineExecutions }

// Renders counts rendering operations.
func (a *App) Renders() int { return a.renders }

// GhostRequest is the framework's explicit request for ghost data
// generation around each sub-grid of a decomposition.
type GhostRequest struct {
	Parts  [3]int // block layout
	Layers int    // stencil width (1 for the gradient primitive)
}

// GhostBlock is one sub-grid with its ghost stencil: the grown extent,
// the field data over the grown region, and where the interior sits.
type GhostBlock struct {
	// Box is the block's interior extent in global cell coordinates.
	Box mesh.Extent
	// Grown is the ghost-grown extent actually carried by the arrays.
	Grown mesh.Extent
	// Field holds u, v, w over the grown extent with a matching submesh.
	Field *rtsim.Field
}

// GenerateGhostData fulfills a ghost request: it decomposes the current
// time step and returns every sub-grid with duplicated neighbour cells,
// exactly what VisIt hands the framework so gradients are correct at
// block boundaries.
func (a *App) GenerateGhostData(req GhostRequest) ([]GhostBlock, error) {
	if req.Layers < 0 {
		return nil, fmt.Errorf("host: negative ghost layers")
	}
	boxes, err := mesh.Split(a.mesh.Dims, req.Parts)
	if err != nil {
		return nil, err
	}
	out := make([]GhostBlock, 0, len(boxes))
	for _, box := range boxes {
		grown := box.Grow(req.Layers, a.mesh.Dims)
		sub, err := a.field.SubField(grown)
		if err != nil {
			return nil, err
		}
		out = append(out, GhostBlock{Box: box, Grown: grown, Field: sub})
	}
	return out, nil
}
