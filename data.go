package dfg

import (
	"dfg/internal/rtsim"
	"dfg/internal/vortex"
)

// Field is one time step of cell-centered velocity data (u, v, w) on a
// mesh — the inputs the paper's evaluation feeds the framework.
type Field = rtsim.Field

// GenerateRT deterministically synthesizes a Rayleigh–Taylor-like
// velocity field on the mesh, standing in for the paper's (proprietary)
// 3072^3 LLNL RT DNS data set. Equal seeds give equal fields.
func GenerateRT(m *Mesh, seed int64) *Field {
	return rtsim.Generate(m, rtsim.Options{Seed: seed})
}

// The paper's three application expressions (Figure 3), ready to Eval.
const (
	// VelocityMagnitudeExpr computes |v| (Figure 3A).
	VelocityMagnitudeExpr = vortex.VelMagExpr
	// VorticityMagnitudeExpr computes |curl v| (Figure 3B).
	VorticityMagnitudeExpr = vortex.VortMagExpr
	// QCriterionExpr computes Hunt's Q-criterion (Figure 3C).
	QCriterionExpr = vortex.QCritExpr
	// GradientMagnitudeExpr (beyond the paper) computes |grad |v|| — the
	// two-pass materialization example: its stencil consumes a computed
	// field, so the fused kernel splits into passes around a scratch array.
	GradientMagnitudeExpr = vortex.GradMagExpr
)

// FieldInputs packs a velocity field's arrays for Engine.EvalOnMesh.
func FieldInputs(f *Field) map[string][]float32 {
	return map[string][]float32{"u": f.U, "v": f.V, "w": f.W}
}
