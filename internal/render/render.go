// Package render produces simple image renderings of derived fields —
// the stand-in for the paper's Figure 7 pseudo-color visualization. It
// writes binary PPM images (with a diverging blue-white-red colormap
// suited to signed fields like Q-criterion) of axis-aligned slices
// through a cell-centered field. PPM is chosen because it needs no image
// library and every viewer opens it.
package render

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"

	"dfg/internal/mesh"
)

// Axis selects the slicing direction.
type Axis int

const (
	// X slices perpendicular to the x axis (a YZ plane), and so on.
	X Axis = iota
	Y
	Z
)

// String names the axis.
func (a Axis) String() string {
	switch a {
	case X:
		return "x"
	case Y:
		return "y"
	case Z:
		return "z"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// Slice extracts a 2-D plane of a cell-centered field at the given index
// along the axis, returning the plane's data row-major with its width
// and height.
func Slice(field []float32, d mesh.Dims, axis Axis, index int) ([]float32, int, int, error) {
	if len(field) != d.Cells() {
		return nil, 0, 0, fmt.Errorf("render: field has %d values for %d cells", len(field), d.Cells())
	}
	var w, h int
	var at func(i, j int) int
	switch axis {
	case X:
		if index < 0 || index >= d.NX {
			return nil, 0, 0, fmt.Errorf("render: x index %d out of range [0, %d)", index, d.NX)
		}
		w, h = d.NY, d.NZ
		at = func(i, j int) int { return d.Index(index, i, j) }
	case Y:
		if index < 0 || index >= d.NY {
			return nil, 0, 0, fmt.Errorf("render: y index %d out of range [0, %d)", index, d.NY)
		}
		w, h = d.NX, d.NZ
		at = func(i, j int) int { return d.Index(i, index, j) }
	case Z:
		if index < 0 || index >= d.NZ {
			return nil, 0, 0, fmt.Errorf("render: z index %d out of range [0, %d)", index, d.NZ)
		}
		w, h = d.NX, d.NY
		at = func(i, j int) int { return d.Index(i, j, index) }
	default:
		return nil, 0, 0, fmt.Errorf("render: bad axis %d", axis)
	}
	out := make([]float32, w*h)
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			out[j*w+i] = field[at(i, j)]
		}
	}
	return out, w, h, nil
}

// robustRange picks the color range from the 2nd and 98th percentiles,
// so a few extreme cells don't wash out the rendering.
func robustRange(vals []float32) (lo, hi float64) {
	sorted := append([]float32(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	lo = float64(sorted[len(sorted)*2/100])
	hi = float64(sorted[len(sorted)*98/100])
	if hi <= lo {
		hi = lo + 1
	}
	return
}

// WritePPM renders the plane as a binary PPM with a diverging
// blue-white-red colormap centred on zero — the natural palette for
// signed fields like Q-criterion (red = rotation, blue = strain).
func WritePPM(w io.Writer, plane []float32, width, height int) error {
	if len(plane) != width*height {
		return fmt.Errorf("render: plane %d != %dx%d", len(plane), width, height)
	}
	lo, hi := robustRange(plane)
	// Symmetric range around zero keeps white at Q = 0.
	m := math.Max(math.Abs(lo), math.Abs(hi))
	if m == 0 {
		m = 1
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P6\n%d %d\n255\n", width, height)
	for _, v := range plane {
		t := float64(v) / m // -1 .. 1
		r, g, bl := diverging(t)
		bw.WriteByte(r)
		bw.WriteByte(g)
		bw.WriteByte(bl)
	}
	return bw.Flush()
}

// diverging maps t in [-1, 1] to blue-white-red.
func diverging(t float64) (r, g, b byte) {
	switch {
	case t < -1:
		t = -1
	case t > 1:
		t = 1
	}
	if t < 0 {
		// blue (0,0,255) -> white
		return toByte(1 + t), toByte(1 + t), 255
	}
	// white -> red (255,0,0)
	return 255, toByte(1 - t), toByte(1 - t)
}

// toByte clamps t in [0, 1] to an 8-bit channel.
func toByte(t float64) byte {
	switch {
	case t <= 0:
		return 0
	case t >= 1:
		return 255
	default:
		return byte(t*255 + 0.5)
	}
}
