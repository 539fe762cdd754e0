package render

import (
	"bytes"
	"strings"
	"testing"

	"dfg/internal/mesh"
)

func testField() ([]float32, mesh.Dims) {
	d := mesh.Dims{NX: 4, NY: 3, NZ: 2}
	f := make([]float32, d.Cells())
	for i := range f {
		f[i] = float32(i)
	}
	return f, d
}

func TestSliceAxes(t *testing.T) {
	f, d := testField()

	// Z slice at k=1: values f[d.Index(i,j,1)].
	p, w, h, err := Slice(f, d, Z, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w != 4 || h != 3 {
		t.Fatalf("z slice shape %dx%d", w, h)
	}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			if p[j*w+i] != f[d.Index(i, j, 1)] {
				t.Fatalf("z slice wrong at (%d,%d)", i, j)
			}
		}
	}

	p, w, h, err = Slice(f, d, X, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w != 3 || h != 2 {
		t.Fatalf("x slice shape %dx%d", w, h)
	}
	if p[0] != f[d.Index(2, 0, 0)] || p[w*h-1] != f[d.Index(2, 2, 1)] {
		t.Fatal("x slice values wrong")
	}

	if _, _, _, err := Slice(f, d, Y, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSliceErrors(t *testing.T) {
	f, d := testField()
	if _, _, _, err := Slice(f[:3], d, Z, 0); err == nil {
		t.Error("short field must fail")
	}
	if _, _, _, err := Slice(f, d, Z, 5); err == nil {
		t.Error("out-of-range index must fail")
	}
	if _, _, _, err := Slice(f, d, Axis(9), 0); err == nil {
		t.Error("bad axis must fail")
	}
	if Axis(9).String() == "" || X.String() != "x" {
		t.Error("axis names wrong")
	}
}

func TestWritePPMDiverging(t *testing.T) {
	plane := []float32{-8, -4, 0, 4, 8, 0}
	var buf bytes.Buffer
	if err := WritePPM(&buf, plane, 3, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !strings.HasPrefix(string(out), "P6\n3 2\n255\n") {
		t.Fatalf("PPM header wrong")
	}
	pix := out[len(out)-18:]
	// Most negative pixel: blue dominated; most positive: red dominated;
	// zero: white.
	if !(pix[2] > pix[0]) {
		t.Fatalf("negative value should be blue: rgb %v", pix[0:3])
	}
	if !(pix[12] > pix[14]) {
		t.Fatalf("positive value should be red: rgb %v", pix[12:15])
	}
	if pix[6] < 250 || pix[7] < 250 || pix[8] < 250 {
		t.Fatalf("zero should be near white: rgb %v", pix[6:9])
	}
	if err := WritePPM(&buf, plane, 5, 5); err == nil {
		t.Error("shape mismatch must fail")
	}
}

func TestConstantFieldRenders(t *testing.T) {
	plane := make([]float32, 16)
	var buf bytes.Buffer
	if err := WritePPM(&buf, plane, 4, 4); err != nil {
		t.Fatalf("all-zero plane must render: %v", err)
	}
}
