package strategy

import (
	"fmt"
	"slices"
	"sync"

	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/kernels"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
)

// planStreaming plans the execution strategy the paper's future-work
// section proposes ("we plan to investigate the runtime performance of our
// execution strategies in a streaming context"): the mesh is tiled into
// Z slabs, and the fused kernel runs tile by tile, so only a tile's
// working set occupies device memory at a time. Data sets that exceed
// device memory under fusion — the paper's failed GPU cases — complete
// under streaming, at the price of one kernel dispatch per tile and
// re-uploading each tile's halo.
//
// Tiles carrying stencil primitives (grad3d) are grown on each Z face
// (clipped at the domain boundary) by the network's stencil depth — one
// layer of cells for a gradient, two for a gradient of a gradient — so
// every stencil is exact everywhere and streaming's output is bitwise
// identical to fusion's.
//
// With a buffer arena attached, each tile's source windows bind to
// resident slots keyed by source name and window offset; the windows of
// mesh-derived arrays, and each tile's own dims, are stable, so warm
// executions over one mesh skip their uploads.
//
// Planning generates the fused program and fixes the slab count.
func planStreaming(net *dataflow.Network, tiles int) (Plan, error) {
	base, err := newPlanBase("streaming", net)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Build(net, "expr")
	if err != nil {
		return nil, err
	}
	return &streamingPlan{planBase: base, prog: prog, tiles: tiles}, nil
}

// streamingPlan holds the fused program plus the slab count. Tile
// geometry depends on the bound dims, so it is derived per execution
// and memoized per mesh extent (layouts), for up to maxTilings extents.
type streamingPlan struct {
	planBase
	prog  *codegen.Program
	tiles int

	mu      sync.Mutex
	layouts map[mesh.Dims]*tiling
}

// maxTilings bounds a plan's tiling memo. A plan is shared by every
// engine that prepares its text, so the memo holds each extent those
// engines bind, and a tile's dims array stays the one its resident slot
// holds however their executions interleave; only past this many
// extents is one dropped and its dims rebuilt (and re-uploaded).
const maxTilings = 8

// tiling is the tile geometry of one mesh extent: per tile, its slab,
// its haloed extent, the dims array describing the tile and the resident
// key of each source argument. Nothing writes it after construction, so
// concurrent executions share it and the tile dims bind as stable.
type tiling struct {
	tiles []tileGeom
}

// tileGeom is one tile of a tiling; its cells are the n from lo of the
// whole mesh.
type tileGeom struct {
	slab, tile mesh.Extent
	lo, n      int
	dims       []float32
	keys       []string // per prog.Args entry; "" for non-sources
}

// tilingFor returns the tile geometry of domain, building it on the
// memo's first sight of that extent.
func (p *streamingPlan) tilingFor(domain mesh.Dims) (*tiling, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if l, ok := p.layouts[domain]; ok {
		return l, nil
	}
	slabs, err := mesh.Split(domain, [3]int{1, 1, min(p.tiles, domain.NZ)})
	if err != nil {
		return nil, err
	}
	l := &tiling{tiles: make([]tileGeom, len(slabs))}
	for t, slab := range slabs {
		tile := slab.Grow(p.depth, domain)
		td := tile.Dims()
		g := tileGeom{slab: slab, tile: tile, lo: domain.Index(0, 0, tile.Lo[2]), n: tile.Cells(),
			dims: kernels.DimsArray(td.NX, td.NY, td.NZ), keys: make([]string, len(p.prog.Args))}
		for i, a := range p.prog.Args {
			if a.Kind == codegen.ArgSource {
				g.keys[i] = fmt.Sprintf("%s@z%d+%d", a.Name, g.lo, g.n)
			}
		}
		l.tiles[t] = g
	}
	if p.layouts == nil {
		p.layouts = make(map[mesh.Dims]*tiling, maxTilings)
	}
	if len(p.layouts) == maxTilings {
		for d := range p.layouts {
			delete(p.layouts, d)
			break
		}
	}
	p.layouts[domain] = l
	return l, nil
}

// Execute runs the plan's fused kernel slab by slab: the domain is split
// into min(tiles, NZ) Z slabs, and each slab grows by the stencil depth.
func (p *streamingPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	domain, err := p.tileGeometry(bind)
	if err != nil {
		return Result{}, err
	}
	layout, err := p.tilingFor(domain)
	if err != nil {
		return Result{}, err
	}

	outs := make([]ocl.View, len(p.prog.OutWidths))
	for i, w := range p.prog.OutWidths {
		outs[i] = ocl.View{Data: make([]float32, bind.N*w), Elems: bind.N, Width: w}
	}
	whole := mesh.Extent{Hi: [3]int{domain.NX, domain.NY, domain.NZ}}
	for t := range layout.tiles {
		if err := bind.canceled(); err != nil {
			return Result{}, err
		}
		if err := p.runTile(env, bind, whole, &layout.tiles[t], outs); err != nil {
			return Result{}, fmt.Errorf("streaming: tile %d: %w", t, err)
		}
	}
	res := finish(env, outs[0].Data, p.prog.OutWidth)
	res.fanOut(outs)
	return res, nil
}

// tileGeometry derives the mesh to tile from the plan and bindings:
// stencil networks tile the mesh their dims source describes (beginRun
// has checked that it covers N cells); pure element-wise networks tile
// the flat array as a 1 x 1 x N mesh.
func (p *streamingPlan) tileGeometry(bind Bindings) (domain mesh.Dims, err error) {
	domain = mesh.Dims{NX: 1, NY: 1, NZ: bind.N}
	for i, name := range p.dims {
		src, _ := bind.lookup(name)
		v := src.Data
		if len(v) < 3 {
			return domain, fmt.Errorf("strategy: stencil network needs its dims source %q bound to tile", name)
		}
		d := mesh.Dims{NX: int(v[0]), NY: int(v[1]), NZ: int(v[2])}
		if i > 0 && d != domain {
			return domain, fmt.Errorf("strategy: dims sources %q and %q describe different meshes; streaming tiles one", p.dims[0], name)
		}
		if p.perElement(name) {
			return domain, fmt.Errorf("strategy: source %q is both a stencil's dims and a per-element field; streaming cannot window it", name)
		}
		domain = d
	}
	return domain, nil
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

// runTile uploads the haloed tile's source windows, launches the fused
// kernel on the environment and copies the slab's interior of each output
// (one per root) into the matching global result array. A tile spans X
// and Y, so its cells are one contiguous run of the whole mesh and every
// source the kernel indexes per element is windowed by a zero-copy slice,
// however long the bound array is; every stencil's dims source becomes
// the tile's own extents. Source windows go through the resident path
// keyed by (name, window offset), so with an arena attached a window of
// a stable array skips its upload.
func (p *streamingPlan) runTile(env *ocl.Env, bind Bindings, whole mesh.Extent, g *tileGeom, outs []ocl.View) error {
	prog := p.prog
	lo, n := g.lo, g.n
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
				data, stable = g.dims, true
			case p.perElement(a.Name):
				data = src.Data[lo*src.Width : (lo+n)*src.Width]
			}
			b, err := env.UploadResident(g.keys[i], a.Name, data, src.Width, stable)
			if err != nil {
				return err
			}
			bufs[i] = b
		case codegen.ArgScratch:
			b, err := env.NewBuffer(a.Name, n, a.Width)
			if err != nil {
				return err
			}
			bufs[i] = b
		case codegen.ArgOut:
			b, err := env.NewBuffer(a.Name, n, a.Width)
			if err != nil {
				return err
			}
			outBufs = append(outBufs, b)
			bufs[i] = b
		}
	}

	if err := env.Run(prog.Kernel, n, bufs, nil); err != nil {
		return err
	}
	for oi, b := range outBufs {
		tileOut, err := env.Download(b)
		if err != nil {
			return err
		}
		if err := mesh.CopyBox(outs[oi].Data, whole, tileOut, g.tile, g.slab, outs[oi].Width); err != nil {
			return err
		}
	}
	return nil
}
