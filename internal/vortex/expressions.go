package vortex

// The paper's three application expressions (Figure 3), written in the
// framework's expression language. They span the evaluated range of
// computational complexity: the near-trivial vector magnitude, the
// gradient-based vorticity magnitude, and the expensive Q-criterion.
//
// Two lines of Figure 3C are completed from the mathematics (the
// figure's text is garbled at w_3 and truncates before the final
// assignment): w_3 = 0.5*(dv[0] - du[1]) is the antisymmetric tensor
// entry, and q = 0.5*(w_norm - s_norm) is Hunt's criterion itself.
// With those lines, the dataflow network contains exactly the operation
// counts of the paper's Table II (57 kernels for roundtrip Q-criterion,
// and so on), which is how the reconstruction was validated.
const (
	// VelMagExpr is Figure 3A: velocity magnitude.
	VelMagExpr = `v_mag = sqrt(u*u + v*v + w*w)`

	// VortMagExpr is Figure 3B: vorticity magnitude (|curl(v)|).
	VortMagExpr = `du = grad3d(u,dims,x,y,z)
dv = grad3d(v,dims,x,y,z)
dw = grad3d(w,dims,x,y,z)
w_x = dw[1] - dv[2]
w_y = du[2] - dw[0]
w_z = dv[0] - du[1]
w_mag = sqrt(w_x*w_x + w_y*w_y + w_z*w_z)`

	// QCritExpr is Figure 3C: Hunt's Q-criterion.
	QCritExpr = `du = grad3d(u, dims, x, y, z)
dv = grad3d(v, dims, x, y, z)
dw = grad3d(w, dims, x, y, z)
s_1 = 0.5 * (du[1] + dv[0])
s_2 = 0.5 * (du[2] + dw[0])
s_3 = 0.5 * (dv[0] + du[1])
s_5 = 0.5 * (dv[2] + dw[1])
s_6 = 0.5 * (dw[0] + du[2])
s_7 = 0.5 * (dw[1] + dv[2])
w_1 = 0.5 * (du[1] - dv[0])
w_2 = 0.5 * (du[2] - dw[0])
w_3 = 0.5 * (dv[0] - du[1])
w_5 = 0.5 * (dv[2] - dw[1])
w_6 = 0.5 * (dw[0] - du[2])
w_7 = 0.5 * (dw[1] - dv[2])
s_norm = du[0]*du[0] + s_1*s_1 + s_2*s_2 + s_3*s_3 + dv[1]*dv[1] + s_5*s_5 + s_6*s_6 + s_7*s_7 + dw[2]*dw[2]
w_norm = w_1*w_1 + w_2*w_2 + w_3*w_3 + w_5*w_5 + w_6*w_6 + w_7*w_7
q = 0.5 * (w_norm - s_norm)`

	// GradMagExpr is not a paper figure: the gradient magnitude of the
	// velocity magnitude, the two-pass materialization example. Its
	// stencil consumes a computed field, so it exercises the fusion
	// generator's materialization pass split (Figure 2's fusion scratch
	// array).
	GradMagExpr = `m = sqrt(u*u + v*v + w*w)
g = grad3d(m, dims, x, y, z)
r = norm(g)`
)

// Expressions maps the paper's short names (Table II) to the expression
// text, in the paper's order.
func Expressions() []struct{ Name, Text string } {
	return []struct{ Name, Text string }{
		{"VelMag", VelMagExpr},
		{"VortMag", VortMagExpr},
		{"Q-Crit", QCritExpr},
	}
}
