package strategy

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/rtsim"
	"dfg/internal/vortex"
)

// qcritSetup compiles Q-criterion and binds RT data on a mesh.
func qcritSetup(t testing.TB, d mesh.Dims) (Bindings, *mesh.Mesh) {
	t.Helper()
	m := mesh.MustUniform(d, 1.0/float32(d.NX), 1.0/float32(d.NY), 1.0/float32(d.NZ))
	f := rtsim.Generate(m, rtsim.Options{Seed: 17})
	bind, err := BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		t.Fatal(err)
	}
	return bind, m
}

func TestStreamingMatchesFusionBitwise(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 12, NY: 10, NZ: 16})
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(Strategy{Kind: Fusion}, cpuEnv(), net, bind)
	if err != nil {
		t.Fatal(err)
	}
	for _, tiles := range []int{1, 2, 3, 4, 7, 16, 100} {
		res, err := Execute(Strategy{Kind: Streaming, Tiles: tiles}, cpuEnv(), net, bind)
		if err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
		for i := range want.Data {
			if res.Data[i] != want.Data[i] {
				t.Fatalf("tiles=%d: cell %d differs: %v vs %v (halo exchange broken?)",
					tiles, i, res.Data[i], want.Data[i])
			}
		}
	}
}

func TestStreamingProfileAndMemory(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 16, NY: 16, NZ: 32})
	net, _ := expr.Compile(vortex.QCritExpr)

	fuEnv := cpuEnv()
	fu, err := Execute(Strategy{Kind: Fusion}, fuEnv, net, bind)
	if err != nil {
		t.Fatal(err)
	}
	stEnv := cpuEnv()
	st, err := Execute(Strategy{Kind: Streaming, Tiles: 4}, stEnv, net, bind)
	if err != nil {
		t.Fatal(err)
	}
	if st.Profile.Kernels != 4 {
		t.Fatalf("streaming with 4 tiles should dispatch 4 kernels, got %d", st.Profile.Kernels)
	}
	if st.Profile.Reads != 4 {
		t.Fatalf("streaming reads one slab per tile, got %d", st.Profile.Reads)
	}
	if st.PeakBytes >= fu.PeakBytes {
		t.Fatalf("streaming peak (%d) must undercut fusion peak (%d)", st.PeakBytes, fu.PeakBytes)
	}
	// Streaming re-uploads halos: strictly more transfer bytes.
	if st.Profile.WriteBytes <= fu.Profile.WriteBytes {
		t.Fatalf("streaming must upload halo overlap: %d vs %d", st.Profile.WriteBytes, fu.Profile.WriteBytes)
	}
	if stEnv.Context().LiveBuffers() != 0 {
		t.Fatal("streaming leaked buffers")
	}
}

// TestStreamingRunsWhereFusionFails is the point of the strategy: a
// data set whose fused working set exceeds device memory completes by
// streaming.
func TestStreamingRunsWhereFusionFails(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 24, NY: 24, NZ: 64})
	net, _ := expr.Compile(vortex.QCritExpr)

	// Device sized below fusion's inputs+output working set.
	spec := ocl.TeslaM2050Spec(1)
	spec.GlobalMemSize = 9 * int64(bind.N) // < 7 scalar arrays * 4 B
	spec.MaxAllocSize = spec.GlobalMemSize
	dev := ocl.NewDevice(spec)

	if _, err := Execute(Strategy{Kind: Fusion}, ocl.NewEnv(dev), net, bind); !errors.Is(err, ocl.ErrOutOfDeviceMemory) {
		t.Fatalf("fusion should run out of device memory, got %v", err)
	}
	res, err := Execute(Strategy{Kind: Streaming, Tiles: 8}, ocl.NewEnv(dev), net, bind)
	if err != nil {
		t.Fatalf("streaming should fit tile by tile: %v", err)
	}
	want, err := Execute(Strategy{Kind: Fusion}, cpuEnv(), net, bind)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if res.Data[i] != want.Data[i] {
			t.Fatalf("streamed result differs at %d", i)
		}
	}
}

func TestStreamingFlatElementwise(t *testing.T) {
	// Without stencils, streaming tiles the flat array (no dims needed).
	nw := buildVelMag(t)
	bind, _, _, _ := velMagBindings(rand.New(rand.NewSource(5)), 10000)
	res, err := Execute(Strategy{Kind: Streaming, Tiles: 3}, cpuEnv(), nw, bind)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Execute(Strategy{Kind: Fusion}, cpuEnv(), nw, bind)
	for i := range want.Data {
		if res.Data[i] != want.Data[i] {
			t.Fatalf("flat streaming differs at %d", i)
		}
	}
	if res.Profile.Kernels != 3 {
		t.Fatalf("want 3 tile kernels, got %d", res.Profile.Kernels)
	}
}

func TestStreamingRequiresDimsForStencils(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 8})
	delete(bind.Sources, "dims")
	net, _ := expr.Compile(vortex.QCritExpr)
	if _, err := Execute(Strategy{Kind: Streaming, Tiles: 4}, cpuEnv(), net, bind); err == nil {
		t.Fatal("stencil streaming without dims must fail")
	}
}

// TestStreamingRefusesUntileableDims: streaming tiles one mesh along Z,
// so two dims sources describing different meshes, or a dims source the
// network also reads per element, are refused before any tile runs.
// Fusion runs both networks.
func TestStreamingRefusesUntileableDims(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 4, NY: 4, NZ: 4})
	bind.Sources["d2"] = Source{Data: []float32{16, 4, 1, 0}, Width: 1}
	field := make([]float32, bind.N)
	copy(field, bind.Sources["dims"].Data)
	bind.Sources["df"] = Source{Data: field, Width: 1}
	for text, want := range map[string]string{
		"g = grad3d(u, dims, x, y, z)\nh = grad3d(u, d2, x, y, z)\nr = g[0] + h[0]": "describe different meshes",
		"g = grad3d(u, df, x, y, z)\nr = g[0] + df":                                 "both a stencil's dims and a per-element field",
	} {
		net, err := expr.Compile(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Execute(Strategy{Kind: Fusion}, cpuEnv(), net, bind); err != nil {
			t.Fatalf("fusion %q: %v", text, err)
		}
		if _, err := Execute(Strategy{Kind: Streaming, Tiles: 4}, cpuEnv(), net, bind); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("streaming %q: err = %v, want %q", text, err, want)
		}
	}
}

func TestStreamingBadDims(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 8})
	bind.Sources["dims"] = Source{Data: []float32{3, 3, 3, 0}, Width: 1} // 27 != 512
	net, _ := expr.Compile(vortex.QCritExpr)
	if _, err := Execute(Strategy{Kind: Streaming, Tiles: 4}, cpuEnv(), net, bind); err == nil {
		t.Fatal("inconsistent dims must fail")
	}
}

// TestStreamingClampsTilesToNZ: a tile count above the mesh's Z extent
// clamps to one slab per Z layer before the split, as the recovery
// ladder's streaming@256 needs on small meshes, and stays bitwise equal
// to fusion. A flat element-wise network tiles N cells the same way.
func TestStreamingClampsTilesToNZ(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 4, NY: 3, NZ: 5})
	net, _ := expr.Compile(vortex.QCritExpr)
	want, err := Execute(Strategy{Kind: Fusion}, cpuEnv(), net, bind)
	if err != nil {
		t.Fatal(err)
	}
	for tiles, kernels := range map[int]int{3: 3, 5: 5, 256: 5} {
		res, err := Execute(Strategy{Kind: Streaming, Tiles: tiles}, cpuEnv(), net, bind)
		if err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
		if res.Profile.Kernels != kernels {
			t.Fatalf("tiles=%d on nz=5: %d kernels, want %d", tiles, res.Profile.Kernels, kernels)
		}
		for i := range want.Data {
			if !sameClass(res.Data[i], want.Data[i]) {
				t.Fatalf("tiles=%d: cell %d differs: %v vs %v", tiles, i, res.Data[i], want.Data[i])
			}
		}
	}
	flat := buildVelMag(t)
	fb, _, _, _ := velMagBindings(rand.New(rand.NewSource(3)), 7)
	res, err := Execute(Strategy{Kind: Streaming, Tiles: 256}, cpuEnv(), flat, fb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Kernels != 7 {
		t.Fatalf("flat streaming@256 over 7 cells: %d kernels, want 7", res.Profile.Kernels)
	}
}

func TestForNameStreaming(t *testing.T) {
	s, err := ForName("streaming")
	if err != nil || s.Name() != "streaming" {
		t.Fatalf("ForName(streaming): %v %v", s, err)
	}
	names := ExtendedNames()
	if len(names) != 5 || names[3] != "streaming" || names[4] != "vm" {
		t.Fatalf("extended names: %v", names)
	}
}

func TestStagedKeepIntermediatesAblation(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 12, NY: 12, NZ: 12})
	net, _ := expr.Compile(vortex.QCritExpr)

	eager, err := Execute(Strategy{Kind: Staged}, cpuEnv(), net, bind)
	if err != nil {
		t.Fatal(err)
	}
	// The ablation is not a variant: it reaches the planner directly.
	hp, err := planStaged(net, true)
	if err != nil {
		t.Fatal(err)
	}
	env := cpuEnv()
	hoard, err := hp.Execute(env, bind)
	if err != nil {
		t.Fatal(err)
	}
	// Identical numerics, strictly worse memory.
	for i := range eager.Data {
		if eager.Data[i] != hoard.Data[i] {
			t.Fatalf("ablation changed results at %d", i)
		}
	}
	if hoard.PeakBytes <= eager.PeakBytes {
		t.Fatalf("without refcount frees the peak must grow: %d vs %d", hoard.PeakBytes, eager.PeakBytes)
	}
	if env.Context().LiveBuffers() != 0 {
		t.Fatal("ablation run must still clean up at exit")
	}
}

// BenchmarkAblation_Refcounting compares staged Q-criterion with eager
// reference-count-driven frees against hoarding every intermediate, on
// Table I row 1 at 1/4 linear scale.
func BenchmarkAblation_Refcounting(b *testing.B) {
	bind, _ := qcritSetup(b, rtsim.TableIGrids(4)[0].Dims)
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		b.Fatal(err)
	}
	for _, keep := range []bool{false, true} {
		name := "eager-free"
		if keep {
			name = "keep-intermediates"
		}
		b.Run(name, func(b *testing.B) {
			p, err := planStaged(net, keep)
			if err != nil {
				b.Fatal(err)
			}
			var peak float64
			for i := 0; i < b.N; i++ {
				env := ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
				res, err := p.Execute(env, bind)
				if err != nil {
					b.Fatal(err)
				}
				peak = float64(res.PeakBytes)
			}
			b.ReportMetric(peak, "peak-device-B")
		})
	}
}

// TestStreamingPropertyRandomGeometry: streaming equals fusion bitwise
// for random mesh shapes, tile counts and seeds, over sources longer
// than the mesh.
func TestStreamingPropertyRandomGeometry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := mesh.Dims{NX: 2 + rng.Intn(9), NY: 2 + rng.Intn(9), NZ: 1 + rng.Intn(24)}
		m := mesh.MustUniform(d, 0.1, 0.1, 0.1)
		fld := rtsim.Generate(m, rtsim.Options{Seed: seed})
		bind, err := BindMesh(m, map[string][]float32{"u": fld.U, "v": fld.V, "w": fld.W})
		if err != nil {
			return false
		}
		// Over-long sources: only the first N elements may be read.
		for name, src := range bind.Sources {
			bind.Sources[name] = Source{Data: append(src.Data[:len(src.Data):len(src.Data)], 7, -3, 1e30), Width: 1}
		}
		net, err := expr.Compile(vortex.VortMagExpr)
		if err != nil {
			return false
		}
		want, err := Execute(Strategy{Kind: Fusion}, cpuEnv(), net, bind)
		if err != nil {
			return false
		}
		tiles := 1 + rng.Intn(d.NZ+3) // may exceed NZ: clamps
		got, err := Execute(Strategy{Kind: Streaming, Tiles: tiles}, cpuEnv(), net, bind)
		if err != nil {
			t.Logf("seed %d dims %v tiles %d: %v", seed, d, tiles, err)
			return false
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Logf("seed %d dims %v tiles %d: cell %d differs", seed, d, tiles, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
