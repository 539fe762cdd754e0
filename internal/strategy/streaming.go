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
// Planning generates the fused program and its schedule (fusion's),
// and fixes the slab count; each mesh extent's tiled schedule is built
// on first sight.
func planStreaming(net *dataflow.Network, tiles int) (Plan, error) {
	base, err := newPlanBase("streaming", net)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Build(net, "expr")
	if err != nil {
		return nil, err
	}
	fused := devicePlan{planBase: base, prog: prog, sched: fusedSchedule(&base, prog)}
	return &streamingPlan{devicePlan: fused, tiles: tiles}, nil
}

// streamingPlan holds the fused schedule, which every tile repeats,
// plus the slab count. Tile geometry depends on the bound dims, so the
// tiled schedule is built per execution and memoized per mesh extent
// (scheds), for up to maxTilings extents.
type streamingPlan struct {
	devicePlan
	tiles int

	mu     sync.Mutex
	scheds map[mesh.Dims]*schedule
}

// maxTilings bounds a plan's tiled-schedule memo. A plan is shared by
// every engine that prepares its text, so the memo holds each extent
// those engines bind, and a tile's dims array stays the one its
// resident slot holds however their executions interleave; only past
// this many extents is one dropped and its dims rebuilt (and
// re-uploaded).
const maxTilings = 8

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
	s, err := p.tiled(domain)
	if err != nil {
		return Result{}, err
	}
	return p.run(s, env, bind)
}

// tiled returns the schedule over domain, building it on the memo's
// first sight of that extent. It makes each root's whole-mesh array,
// then per tile repeats the fused schedule over the tile's cells: a
// tile spans X and Y, so its cells are one contiguous run of the whole
// mesh, and every source the kernel indexes per element binds the
// window of that run, however long the bound array is, while every
// stencil's dims source binds the tile's own extents. Binds are keyed
// "<name>@z<lo>+<cells>", so with an arena attached a window of a
// stable array skips its upload. Each output is downloaded, its slab's
// interior scattered into the root's array, and the tile's slots
// released. Nothing writes a schedule once built, so concurrent
// executions share it and the tile dims bind as stable.
func (p *streamingPlan) tiled(domain mesh.Dims) (*schedule, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.scheds[domain]; ok {
		return s, nil
	}
	slabs, err := mesh.Split(domain, [3]int{1, 1, min(p.tiles, domain.NZ)})
	if err != nil {
		return nil, err
	}
	fused, outs := &p.sched, p.sched.host
	// Per tile: the opTile, fusion's ops and a scatter per output, then
	// the release.
	s := &schedule{args: fused.args, kernels: fused.kernels, roots: fused.roots, dev: fused.dev, host: 2 * outs,
		dims: make([][]float32, len(slabs)), boxes: make([]mesh.Extent, 1, 1+2*len(slabs)),
		ops:    make([]op, 0, int(outs)+len(slabs)*(len(fused.ops)+int(outs)+2)),
		labels: slices.Clip(fused.labels)}
	s.boxes[0] = mesh.Extent{Hi: [3]int{domain.NX, domain.NY, domain.NZ}}
	for i, w := range p.prog.OutWidths {
		s.ops = append(s.ops, op{code: opMake, dst: int32(i), width: int8(w)})
	}
	for t, slab := range slabs {
		tile := slab.Grow(p.depth, domain)
		td := tile.Dims()
		lo, n := int32(domain.Index(0, 0, tile.Lo[2])), int32(tile.Cells())
		s.dims[t] = kernels.DimsArray(td.NX, td.NY, td.NZ)
		s.boxes = append(s.boxes, tile, slab)
		s.ops = append(s.ops, op{code: opTile, at: n})
		for _, o := range fused.ops {
			switch o.code {
			case opBind:
				name := fused.labels[o.label]
				if slices.Contains(p.dims, name) {
					o.count = int32(t + 1)
				} else {
					o.at = lo
				}
				o.label = int32(len(s.labels))
				s.labels = append(s.labels, fmt.Sprintf("%s@z%d+%d", name, lo, n))
			case opLaunch:
				o.label = int32(len(s.labels))
				s.labels = append(s.labels, fmt.Sprintf("tile %d", t))
			case opDownload:
				o.dst += outs
				s.ops = append(s.ops, o, op{code: opScatter, dst: o.dst - outs, src: o.dst, at: int32(1 + 2*t), width: o.width, label: o.label})
				continue
			}
			s.ops = append(s.ops, o)
		}
		s.ops = append(s.ops, op{code: opRelease, count: fused.dev})
	}
	if p.scheds == nil {
		p.scheds = make(map[mesh.Dims]*schedule, maxTilings)
	}
	if len(p.scheds) == maxTilings {
		for d := range p.scheds {
			delete(p.scheds, d)
			break
		}
	}
	p.scheds[domain] = s
	return s, nil
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
		if i := p.need(name); i >= 0 && p.needs[i].perN {
			return domain, fmt.Errorf("strategy: source %q is both a stencil's dims and a per-element field; streaming cannot window it", name)
		}
		domain = d
	}
	return domain, nil
}
