package host

import (
	"testing"

	"dfg"
	"dfg/internal/mesh"
)

func newTestApp(t *testing.T) *App {
	t.Helper()
	m := mesh.MustUniform(mesh.Dims{NX: 12, NY: 12, NZ: 8}, 0.1, 0.1, 0.1)
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewApp(m, 42, eng)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestPipelineExecutesOncePerTimeStep(t *testing.T) {
	app := newTestApp(t)
	if err := app.AddExpression(PythonExpression{Name: "v_mag", Text: dfg.VelocityMagnitudeExpr}); err != nil {
		t.Fatal(err)
	}

	// Many renders, one pipeline execution — the paper's contract.
	for i := 0; i < 5; i++ {
		fields, err := app.Render("view-" + string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if fields["v_mag"] == nil {
			t.Fatal("render must see the derived field")
		}
	}
	if app.PipelineExecutions() != 1 {
		t.Fatalf("pipeline executed %d times for 5 renders, want 1", app.PipelineExecutions())
	}
	if app.Renders() != 5 {
		t.Fatalf("renders = %d", app.Renders())
	}

	// Loading a different time step re-executes exactly once more.
	app.LoadTimeStep(1)
	for i := 0; i < 3; i++ {
		if _, err := app.Render("v"); err != nil {
			t.Fatal(err)
		}
	}
	if app.PipelineExecutions() != 2 {
		t.Fatalf("pipeline executed %d times after time step change, want 2", app.PipelineExecutions())
	}
}

func TestAddingExpressionDirtiesPipeline(t *testing.T) {
	app := newTestApp(t)
	app.AddExpression(PythonExpression{Name: "v_mag", Text: dfg.VelocityMagnitudeExpr})
	if _, err := app.Render("a"); err != nil {
		t.Fatal(err)
	}
	app.AddExpression(PythonExpression{Name: "w_mag", Text: dfg.VorticityMagnitudeExpr})
	fields, err := app.Render("a")
	if err != nil {
		t.Fatal(err)
	}
	if app.PipelineExecutions() != 2 {
		t.Fatalf("adding an expression must re-execute: %d", app.PipelineExecutions())
	}
	if fields["w_mag"] == nil {
		t.Fatal("new expression must be computed")
	}
}

func TestTimeStepsDiffer(t *testing.T) {
	app := newTestApp(t)
	u0 := append([]float32(nil), app.Field().U...)
	app.LoadTimeStep(3)
	same := true
	for i, v := range app.Field().U {
		if v != u0[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different time steps must have different data")
	}
}

func TestExpressionErrorsSurface(t *testing.T) {
	app := newTestApp(t)
	if err := app.AddExpression(PythonExpression{}); err == nil {
		t.Fatal("empty expression must be rejected")
	}
	app.AddExpression(PythonExpression{Name: "bad", Text: "a = nosuch(u)"})
	if _, err := app.Render("a"); err == nil {
		t.Fatal("pipeline error must surface through Render")
	}
}

func TestGenerateGhostData(t *testing.T) {
	app := newTestApp(t)
	blocks, err := app.GenerateGhostData(GhostRequest{Parts: [3]int{3, 2, 2}, Layers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 12 {
		t.Fatalf("want 12 blocks, got %d", len(blocks))
	}
	gd := app.Field().Mesh.Dims
	for _, b := range blocks {
		// Grown extent contains the interior and is clipped to the domain.
		for a := 0; a < 3; a++ {
			if b.Grown.Lo[a] > b.Box.Lo[a] || b.Grown.Hi[a] < b.Box.Hi[a] {
				t.Fatalf("grown extent %v does not contain box %v", b.Grown, b.Box)
			}
		}
		// Ghost data duplicates the global arrays exactly.
		ld := b.Grown.Dims()
		if b.Field.Mesh.Dims != ld {
			t.Fatalf("ghost field dims %v != grown %v", b.Field.Mesh.Dims, ld)
		}
		for k := 0; k < ld.NZ; k++ {
			for j := 0; j < ld.NY; j++ {
				for i := 0; i < ld.NX; i++ {
					g := gd.Index(i+b.Grown.Lo[0], j+b.Grown.Lo[1], k+b.Grown.Lo[2])
					l := ld.Index(i, j, k)
					if b.Field.U[l] != app.Field().U[g] {
						t.Fatalf("ghost data mismatch at block %v local (%d,%d,%d)", b.Box, i, j, k)
					}
				}
			}
		}
	}
	if _, err := app.GenerateGhostData(GhostRequest{Parts: [3]int{0, 1, 1}}); err == nil {
		t.Fatal("bad decomposition must fail")
	}
	if _, err := app.GenerateGhostData(GhostRequest{Parts: [3]int{2, 2, 2}, Layers: -1}); err == nil {
		t.Fatal("negative ghost layers must fail")
	}
}

func TestNewAppValidation(t *testing.T) {
	m := mesh.MustUniform(mesh.Dims{NX: 4, NY: 4, NZ: 4}, 1, 1, 1)
	if _, err := NewApp(m, 0, nil); err == nil {
		t.Fatal("nil engine must fail")
	}
}
