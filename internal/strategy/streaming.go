package strategy

import (
	"fmt"
	"slices"

	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/kernels"
	"dfg/internal/ocl"
)

// Streaming is the execution strategy the paper's future-work section
// proposes ("we plan to investigate the runtime performance of our
// execution strategies in a streaming context"): the mesh is tiled into
// Z slabs, and the fused kernel runs tile by tile, so only a tile's
// working set occupies device memory at a time. Data sets that exceed
// device memory under fusion — the paper's failed GPU cases — complete
// under streaming, at the price of one kernel dispatch per tile and
// re-uploading each tile's halo.
//
// Tiles carrying stencil primitives (grad3d) are grown by one halo layer
// of cells on each Z face (clipped at the domain boundary), so gradients
// are exact everywhere and streaming's output is bitwise identical to
// fusion's.
//
// With a buffer arena attached, each tile's source windows become
// device-resident (keyed by source name and window offset), so warm
// executions over unchanged data skip every tile upload.
type Streaming struct {
	// Tiles is the number of Z slabs (default 4).
	Tiles int
}

// Name returns "streaming".
func (Streaming) Name() string { return "streaming" }

// PlanVariant distinguishes plan-cache entries by slab count, so a
// degradation ladder escalating tile counts never gets a stale plan
// back from the shared cache.
func (s Streaming) PlanVariant() string {
	t := s.Tiles
	if t < 1 {
		t = 4
	}
	return fmt.Sprintf("streaming@%d", t)
}

// streamingPlan holds the fused program plus the slab count; tile
// geometry depends on the bound dims, so it is computed per execution.
type streamingPlan struct {
	planBase
	prog  *codegen.Program
	tiles int
}

// Plan generates the fused program and fixes the slab count.
func (s Streaming) Plan(net *dataflow.Network, _ *ocl.Device) (Plan, error) {
	base, err := newPlanBase("streaming", net)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Fuse(net, "expr")
	if err != nil {
		return nil, err
	}
	tiles := s.Tiles
	if tiles < 1 {
		tiles = 4
	}
	return &streamingPlan{planBase: base, prog: prog, tiles: tiles}, nil
}

// Execute runs the plan's fused kernel slab by slab.
func (p *streamingPlan) Execute(env *ocl.Env, bind Bindings) (*Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return nil, err
	}
	geom, err := p.tileGeometry(bind)
	if err != nil {
		return nil, err
	}

	outs := make([][]float32, len(p.prog.OutWidths))
	for i, w := range p.prog.OutWidths {
		outs[i] = make([]float32, bind.N*w)
	}
	for t, tr := range tilePlan(geom, p.tiles) {
		if err := bind.canceled(); err != nil {
			return nil, err
		}
		if err := p.runTile(env, bind, tr, outs); err != nil {
			return nil, fmt.Errorf("streaming: tile %d: %w", t, err)
		}
	}
	res := finish(env, outs[0], p.prog.OutWidth)
	res.fanOut(outs, p.prog.OutWidths)
	return res, nil
}

// tileGeom captures the mesh shape and stencil halo for tiling.
type tileGeom struct {
	nx, ny, nz int
	halo       int
}

// tileGeometry derives the tiling geometry from the plan and bindings:
// stencil networks tile the mesh their dims source describes (beginRun
// has checked that it covers N cells) with a one-cell halo; pure
// element-wise networks tile the flat array.
func (p *streamingPlan) tileGeometry(bind Bindings) (tileGeom, error) {
	g := tileGeom{nx: 1, ny: 1, nz: bind.N}
	for i, name := range p.dims {
		d := bind.Sources[name].Data
		if len(d) < 3 {
			return g, fmt.Errorf("strategy: stencil network needs its dims source %q bound to tile", name)
		}
		nx, ny, nz := int(d[0]), int(d[1]), int(d[2])
		if i > 0 && (nx != g.nx || ny != g.ny || nz != g.nz) {
			return g, fmt.Errorf("strategy: dims sources %q and %q describe different meshes; streaming tiles one", p.dims[0], name)
		}
		if p.perElement(name) {
			return g, fmt.Errorf("strategy: source %q is both a stencil's dims and a per-element field; streaming cannot window it", name)
		}
		g = tileGeom{nx: nx, ny: ny, nz: nz, halo: 1}
	}
	return g, nil
}

// perElement reports whether an execution indexes the source per element.
func (p *streamingPlan) perElement(name string) bool {
	for _, sn := range p.needs {
		if sn.name == name {
			return sn.perN
		}
	}
	return false
}

// tileRange describes one haloed Z slab in global element coordinates.
type tileRange struct {
	gLo         int // first global element of the haloed tile
	tileN       int // elements in the haloed tile
	nx, ny      int
	nzTile      int // Z extent of the haloed tile
	intLo       int // first interior element within the tile
	intN        int // interior elements
	globalIntLo int // first global element of the interior
}

// tilePlan splits the Z axis into count haloed slabs.
func tilePlan(g tileGeom, count int) []tileRange {
	if count > g.nz {
		count = g.nz
	}
	slab := g.nx * g.ny
	out := make([]tileRange, 0, count)
	for t := 0; t < count; t++ {
		zLo := g.nz * t / count
		zHi := g.nz * (t + 1) / count
		gLo := zLo - g.halo
		if gLo < 0 {
			gLo = 0
		}
		gHi := zHi + g.halo
		if gHi > g.nz {
			gHi = g.nz
		}
		out = append(out, tileRange{
			gLo: gLo * slab, tileN: (gHi - gLo) * slab,
			nx: g.nx, ny: g.ny, nzTile: gHi - gLo,
			intLo: (zLo - gLo) * slab, intN: (zHi - zLo) * slab,
			globalIntLo: zLo * slab,
		})
	}
	return out
}

// runTile uploads the tile's source windows, launches the fused kernel
// on the environment and copies the interior of each output (one per
// root) into the matching global result array. Every source the kernel
// indexes per element is windowed, however long the bound array is;
// every stencil's dims source becomes the tile's own extents. Source
// windows go through the resident path keyed by (name, window offset),
// so with an arena attached an unchanged window skips its upload.
func (p *streamingPlan) runTile(env *ocl.Env, bind Bindings, tr tileRange, outs [][]float32) error {
	if err := bind.canceled(); err != nil {
		return err
	}
	prog := p.prog
	bufs := make([]*ocl.Buffer, len(prog.Args))
	defer func() {
		for _, b := range bufs {
			if b != nil {
				b.Release()
			}
		}
	}()

	var outBufs []*ocl.Buffer // one per root, in Roots() order
	for i, a := range prog.Args {
		switch a.Kind {
		case codegen.ArgSource:
			src, err := bind.source(a.Name)
			if err != nil {
				return err
			}
			data, stable := src.Data, bind.stable(src.Data)
			switch {
			case slices.Contains(p.dims, a.Name):
				// The tile is its own sub-mesh along Z.
				data, stable = kernels.DimsArray(tr.nx, tr.ny, tr.nzTile), false
			case p.perElement(a.Name):
				data = src.Data[tr.gLo*src.Width : (tr.gLo+tr.tileN)*src.Width]
			}
			key := fmt.Sprintf("%s@z%d+%d", a.Name, tr.gLo, tr.tileN)
			b, _, err := env.UploadResident(key, a.Name, data, src.Width, stable)
			if err != nil {
				return err
			}
			bufs[i] = b
		case codegen.ArgScratch:
			b, err := env.NewBuffer(a.Name, tr.tileN, a.Width)
			if err != nil {
				return err
			}
			bufs[i] = b
		case codegen.ArgOut:
			b, err := env.NewBuffer(a.Name, tr.tileN, a.Width)
			if err != nil {
				return err
			}
			outBufs = append(outBufs, b)
			bufs[i] = b
		}
	}

	if err := env.Run(prog.Kernel, tr.tileN, bufs, nil); err != nil {
		return err
	}
	for oi, b := range outBufs {
		tileOut, err := env.Download(b)
		if err != nil {
			return err
		}
		w := prog.OutWidths[oi]
		outOff := tr.globalIntLo * w
		copy(outs[oi][outOff:outOff+tr.intN*w], tileOut[tr.intLo*w:(tr.intLo+tr.intN)*w])
	}
	return nil
}
