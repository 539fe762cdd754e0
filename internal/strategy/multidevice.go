package strategy

import (
	"fmt"
	"sync"

	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/ocl"
)

// ExecuteMultiDevice is the other strategy the paper's future-work
// section proposes: using multiple target devices on a single node (the
// Edge nodes carry two M2050s). The mesh splits into one Z slab per
// device — haloed like streaming tiles so stencils stay exact — and the
// fused kernel runs on all devices concurrently. It is PlanMultiDevice
// followed by MultiPlan.Execute.
//
// The returned Result aggregates every device's profile; PeakBytes is
// the maximum over devices (each device holds only its slab).
func ExecuteMultiDevice(envs []*ocl.Env, net *dataflow.Network, bind Bindings) (*Result, error) {
	p, err := PlanMultiDevice(net)
	if err != nil {
		return nil, err
	}
	return p.Execute(envs, bind)
}

// MultiPlan is the reusable multi-device execution plan: the fused
// program plus the network's topological order (for halo detection).
// Like single-device plans it is immutable and shareable; the slab
// split depends on how many environments Execute receives.
type MultiPlan struct {
	planBase
	prog *codegen.Program
}

// PlanMultiDevice precomputes the multi-device plan for the network.
func PlanMultiDevice(net *dataflow.Network) (*MultiPlan, error) {
	base, err := newPlanBase("multidevice", net)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Fuse(net, "expr")
	if err != nil {
		return nil, err
	}
	return &MultiPlan{planBase: base, prog: prog}, nil
}

// Execute runs the plan's fused kernel concurrently, one Z slab per
// environment. Environments with an arena attached keep their slab's
// source windows device-resident across executions.
func (p *MultiPlan) Execute(envs []*ocl.Env, bind Bindings) (*Result, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("strategy: multi-device execution needs at least one device")
	}
	for _, env := range envs {
		if err := p.beginRun(env, bind); err != nil {
			return nil, err
		}
	}
	geom, err := tileGeometry(p.order, bind)
	if err != nil {
		return nil, err
	}
	prog := p.prog
	tiles := tilePlan(geom, len(envs))

	outs := make([][]float32, len(prog.OutWidths))
	for i, w := range prog.OutWidths {
		outs[i] = make([]float32, bind.N*w)
	}
	errs := make([]error, len(tiles))
	var wg sync.WaitGroup
	for i, tr := range tiles {
		wg.Add(1)
		go func(i int, tr tileRange) {
			defer wg.Done()
			errs[i] = runTileOn(envs[i], prog, bind, tr, outs)
		}(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("strategy: device %d: %w", i, err)
		}
	}

	res := &Result{Data: outs[0], Width: prog.OutWidth}
	res.fanOut(outs, prog.OutWidths)
	for _, env := range envs {
		res.Profile = res.Profile.Add(env.Profile())
		if p := env.PeakBytes(); p > res.PeakBytes {
			res.PeakBytes = p
		}
		res.Events = append(res.Events, env.Queue().Events()...)
	}
	return res, nil
}

// tileGeom captures the mesh shape and stencil halo for tiling.
type tileGeom struct {
	nx, ny, nz int
	halo       int
	n          int
}

// tileGeometry derives the tiling geometry from the network and
// bindings: stencil networks tile the dims-described mesh with a 1-cell
// halo; pure element-wise networks tile the flat array.
func tileGeometry(order []*dataflow.Node, bind Bindings) (tileGeom, error) {
	g := tileGeom{nx: 1, ny: 1, nz: bind.N, n: bind.N}
	for _, n := range order {
		if n.Info().Class == dataflow.ClassStencil {
			g.halo = 1
		}
	}
	if dims, ok := bind.Sources["dims"]; ok && len(dims.Data) >= 3 {
		g.nx, g.ny, g.nz = int(dims.Data[0]), int(dims.Data[1]), int(dims.Data[2])
		if g.nx*g.ny*g.nz != bind.N {
			return g, fmt.Errorf("strategy: dims %dx%dx%d do not cover %d cells", g.nx, g.ny, g.nz, bind.N)
		}
	} else if g.halo > 0 {
		return g, fmt.Errorf("strategy: stencil network needs a dims binding to tile")
	}
	return g, nil
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

// outOff returns the tile's interior offset in the global output array.
func (tr tileRange) outOff(width int) int { return tr.globalIntLo * width }
