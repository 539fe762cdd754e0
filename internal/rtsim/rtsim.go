// Package rtsim generates deterministic synthetic velocity fields that
// stand in for the paper's 3072^3 DNS Rayleigh–Taylor instability data
// set (Cabot & Cook, LLNL), which is not publicly available.
//
// The generated field mixes three ingredients so the vortex-detection
// expressions have realistic structure to find:
//
//   - a Taylor–Green-style cellular vortex component (local spin, so
//     vorticity magnitude and Q-criterion light up),
//   - a Rayleigh–Taylor bubble/spike plume component centred on the
//     mixing layer at mid-height, built from seeded random interface
//     modes, and
//   - a shear profile across the mixing layer.
//
// The runtime and memory results of the paper depend only on array
// sizes, never on values; the synthetic field preserves the sizes
// (Table I sub-grids) and gives the physics something real to measure.
package rtsim

import (
	"fmt"
	"math"
	"math/rand"

	"dfg/internal/mesh"
)

// Field is one time step's cell-centered velocity data on a mesh — the
// inputs the host application hands the framework (u, v, w plus the
// mesh's coordinate arrays).
type Field struct {
	Mesh    *mesh.Mesh
	U, V, W []float32
}

// mode is one seeded perturbation mode of the RT interface.
type mode struct {
	kx, ky float64 // horizontal wavenumbers
	amp    float64 // amplitude
	phase  float64
}

// Options control field generation.
type Options struct {
	// Seed selects the random interface modes; equal seeds give equal
	// fields for equal meshes.
	Seed int64
	// Modes is the number of RT interface perturbation modes (default 8).
	Modes int
	// VortexStrength scales the Taylor–Green component (default 1).
	VortexStrength float64
	// PlumeStrength scales the RT plume component (default 1).
	PlumeStrength float64
	// ShearStrength scales the shear across the mixing layer (default 0.5).
	ShearStrength float64
}

func (o *Options) defaults() {
	if o.Modes <= 0 {
		o.Modes = 8
	}
	if o.VortexStrength == 0 {
		o.VortexStrength = 1
	}
	if o.PlumeStrength == 0 {
		o.PlumeStrength = 1
	}
	if o.ShearStrength == 0 {
		o.ShearStrength = 0.5
	}
}

// Generate builds the synthetic velocity field on the mesh.
func Generate(m *mesh.Mesh, opts Options) *Field {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	modes := make([]mode, opts.Modes)
	for i := range modes {
		modes[i] = mode{
			kx:    float64(1 + rng.Intn(4)),
			ky:    float64(1 + rng.Intn(4)),
			amp:   (0.5 + 0.5*rng.Float64()) / float64(opts.Modes),
			phase: 2 * math.Pi * rng.Float64(),
		}
	}

	d := m.Dims
	n := d.Cells()
	f := &Field{
		Mesh: m,
		U:    make([]float32, n),
		V:    make([]float32, n),
		W:    make([]float32, n),
	}

	cx, cy, cz := m.CellCenters()
	// Normalize cell centers to [0, 2*pi) per axis so the field's
	// structure is resolution- and extent-independent.
	tx := normalize(cx, m.X[0], m.X[len(m.X)-1])
	ty := normalize(cy, m.Y[0], m.Y[len(m.Y)-1])
	tz := normalize(cz, m.Z[0], m.Z[len(m.Z)-1])

	vs := opts.VortexStrength
	ps := opts.PlumeStrength
	ss := opts.ShearStrength

	for k := 0; k < d.NZ; k++ {
		z := tz[k]
		zc := z - math.Pi           // distance from the mixing layer at mid-height
		layer := math.Exp(-zc * zc) // plume envelope around the interface
		shear := ss * math.Tanh(2*zc)
		for j := 0; j < d.NY; j++ {
			y := ty[j]
			for i := 0; i < d.NX; i++ {
				x := tx[i]

				// Taylor–Green vortex component (divergence-free).
				u := vs * math.Sin(x) * math.Cos(y) * math.Cos(z)
				v := -vs * math.Cos(x) * math.Sin(y) * math.Cos(z)
				w := 0.0

				// RT plumes: vertical velocity from the interface modes,
				// with compensating horizontal flow.
				for _, md := range modes {
					s := md.amp * math.Sin(md.kx*x+md.phase) * math.Sin(md.ky*y+md.phase)
					w += ps * s * layer
					u += 0.25 * ps * md.amp * math.Cos(md.kx*x+md.phase) * layer
					v += 0.25 * ps * md.amp * math.Cos(md.ky*y+md.phase) * layer
				}

				u += shear

				idx := d.Index(i, j, k)
				f.U[idx] = float32(u)
				f.V[idx] = float32(v)
				f.W[idx] = float32(w)
			}
		}
	}
	return f
}

// normalize maps coordinates in [lo, hi] to [0, 2*pi].
func normalize(c []float32, lo, hi float32) []float64 {
	out := make([]float64, len(c))
	span := float64(hi - lo)
	if span <= 0 {
		span = 1
	}
	for i, v := range c {
		out[i] = 2 * math.Pi * float64(v-lo) / span
	}
	return out
}

// SubField extracts the portion of the field covered by the (possibly
// ghost-grown) extent, with a submesh carrying the matching coordinates.
func (f *Field) SubField(e mesh.Extent) (*Field, error) {
	sm, err := mesh.Submesh(f.Mesh, e)
	if err != nil {
		return nil, err
	}
	d := f.Mesh.Dims
	whole := mesh.Extent{Hi: [3]int{d.NX, d.NY, d.NZ}}
	var uvw [3][]float32
	for c, src := range [3][]float32{f.U, f.V, f.W} {
		uvw[c] = make([]float32, e.Cells())
		if err := mesh.CopyBox(uvw[c], e, src, whole, e, 1); err != nil {
			return nil, err
		}
	}
	return &Field{Mesh: sm, U: uvw[0], V: uvw[1], W: uvw[2]}, nil
}

// Grid is one row of the paper's Table I: a sub-grid of the RT time step
// used for the single-device evaluation.
type Grid struct {
	Dims mesh.Dims
	// Cells is the cell count (Table I column 2).
	Cells int
	// DataBytes is the on-disk size of the velocity data (three
	// double-precision components per cell, which reproduces Table I's
	// "Data Size" column to within rounding).
	DataBytes int64
}

// DataSize formats DataBytes the way Table I prints it (MB below 1 GB).
func (g Grid) DataSize() string {
	const mb = 1 << 20
	const gb = 1 << 30
	if g.DataBytes >= gb {
		return fmt.Sprintf("%.1f GB", float64(g.DataBytes)/float64(gb))
	}
	return fmt.Sprintf("%.0f MB", float64(g.DataBytes)/float64(mb))
}

// TableIGrids returns the paper's twelve evaluation sub-grids,
// 192 x 192 x (256k) for k = 1..12, with every linear extent divided by
// linScale (device memory in the experiments is divided by linScale^3,
// preserving exactly which cases fit on the GPU). linScale 1 is the
// paper's scale; experiments default to 4.
func TableIGrids(linScale int) []Grid {
	if linScale < 1 {
		linScale = 1
	}
	out := make([]Grid, 0, 12)
	for k := 1; k <= 12; k++ {
		d := mesh.Dims{NX: 192 / linScale, NY: 192 / linScale, NZ: 256 * k / linScale}
		out = append(out, Grid{
			Dims:      d,
			Cells:     d.Cells(),
			DataBytes: int64(d.Cells()) * 3 * 8,
		})
	}
	return out
}

// FullTimeStep describes the distributed-memory evaluation data set: the
// complete 3072^3 (27 billion cell) time step and its original
// decomposition into 3072 sub-grids of 192 x 192 x 256, scaled by
// linScale as in TableIGrids.
func FullTimeStep(linScale int) (domain mesh.Dims, parts [3]int) {
	if linScale < 1 {
		linScale = 1
	}
	return mesh.Dims{NX: 3072 / linScale, NY: 3072 / linScale, NZ: 3072 / linScale}, [3]int{16, 16, 12}
}
