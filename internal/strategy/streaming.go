package strategy

import (
	"fmt"
	"slices"

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
// Tiles carrying stencil primitives (grad3d) are grown by one halo layer
// of cells on each Z face (clipped at the domain boundary), so gradients
// are exact everywhere and streaming's output is bitwise identical to
// fusion's.
//
// With a buffer arena attached, each tile's source windows become
// device-resident (keyed by source name and window offset), so warm
// executions over unchanged data skip every tile upload.
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

// streamingPlan holds the fused program plus the slab count; tile
// geometry depends on the bound dims, so it is computed per execution.
type streamingPlan struct {
	planBase
	prog  *codegen.Program
	tiles int
}

// Execute runs the plan's fused kernel slab by slab: the domain is split
// into min(tiles, NZ) Z slabs, and each slab grows by the stencil halo.
func (p *streamingPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	if err := p.beginRun(env, bind); err != nil {
		return Result{}, err
	}
	domain, halo, err := p.tileGeometry(bind)
	if err != nil {
		return Result{}, err
	}
	slabs, err := mesh.Split(domain, [3]int{1, 1, min(p.tiles, domain.NZ)})
	if err != nil {
		return Result{}, err
	}

	outs := make([]ocl.View, len(p.prog.OutWidths))
	for i, w := range p.prog.OutWidths {
		outs[i] = ocl.View{Data: make([]float32, bind.N*w), Elems: bind.N, Width: w}
	}
	whole := mesh.Extent{Hi: [3]int{domain.NX, domain.NY, domain.NZ}}
	for t, slab := range slabs {
		if err := bind.canceled(); err != nil {
			return Result{}, err
		}
		if err := p.runTile(env, bind, whole, slab, slab.Grow(halo, domain), outs); err != nil {
			return Result{}, fmt.Errorf("streaming: tile %d: %w", t, err)
		}
	}
	res := finish(env, outs[0].Data, p.prog.OutWidth)
	res.fanOut(outs)
	return res, nil
}

// tileGeometry derives the mesh to tile and its stencil halo from the
// plan and bindings: stencil networks tile the mesh their dims source
// describes (beginRun has checked that it covers N cells) with a one-cell
// halo; pure element-wise networks tile the flat array as a 1 x 1 x N
// mesh.
func (p *streamingPlan) tileGeometry(bind Bindings) (domain mesh.Dims, halo int, err error) {
	domain = mesh.Dims{NX: 1, NY: 1, NZ: bind.N}
	for i, name := range p.dims {
		src, _ := bind.lookup(name)
		v := src.Data
		if len(v) < 3 {
			return domain, 0, fmt.Errorf("strategy: stencil network needs its dims source %q bound to tile", name)
		}
		d := mesh.Dims{NX: int(v[0]), NY: int(v[1]), NZ: int(v[2])}
		if i > 0 && d != domain {
			return domain, 0, fmt.Errorf("strategy: dims sources %q and %q describe different meshes; streaming tiles one", p.dims[0], name)
		}
		if p.perElement(name) {
			return domain, 0, fmt.Errorf("strategy: source %q is both a stencil's dims and a per-element field; streaming cannot window it", name)
		}
		domain, halo = d, 1
	}
	return domain, halo, nil
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
// keyed by (name, window offset), so with an arena attached an unchanged
// window skips its upload.
func (p *streamingPlan) runTile(env *ocl.Env, bind Bindings, whole, slab, tile mesh.Extent, outs []ocl.View) error {
	prog := p.prog
	lo, n := whole.Dims().Index(0, 0, tile.Lo[2]), tile.Cells()
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
				td := tile.Dims()
				data, stable = kernels.DimsArray(td.NX, td.NY, td.NZ), false
			case p.perElement(a.Name):
				data = src.Data[lo*src.Width : (lo+n)*src.Width]
			}
			key := fmt.Sprintf("%s@z%d+%d", a.Name, lo, n)
			b, _, err := env.UploadResident(key, a.Name, data, src.Width, stable)
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
		if err := mesh.CopyBox(outs[oi].Data, whole, tileOut, tile, slab, outs[oi].Width); err != nil {
			return err
		}
	}
	return nil
}
