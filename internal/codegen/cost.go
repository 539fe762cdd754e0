package codegen

import (
	"dfg/internal/kernels"
	"dfg/internal/ocl"
	"dfg/internal/vm"
)

// Per-stencil bytes the flat cost model charges against the *field*
// array (as opposed to the coordinate arrays): tiling moves exactly
// these from global to local memory. kernels.GradCost's 40 load bytes
// split 24 field + 16 coords; GradAxisCost's 16 split 8 + 8.
const (
	gradFieldBytes     = 24
	gradAxisFieldBytes = 8
)

// passCost folds one pass's per-element cost from its instructions: the
// primitives' costs summed, minus the global loads and stores fusion
// keeps in registers.
func (g *generator) passCost(p int) ocl.Cost {
	var cost ocl.Cost
	pass := g.low.Passes[p]
	for i := range pass {
		in := &pass[i]
		switch in.Filter() {
		case "load":
			cost.LoadBytes += float64(4 * int(in.Width))
		case "store":
			cost.StoreBytes += float64(4 * int(in.Width))
		case "const", "decompose":
			// literals and component selections are free
		case "norm":
			cost.Flops += 6
		case "grad3d":
			cost = cost.Add(kernels.GradCost())
			cost.StoreBytes -= 16 // the fused gradient stays in a register
		case "grad3dx", "grad3dy", "grad3dz":
			cost = cost.Add(kernels.GradAxisCost())
			cost.StoreBytes -= 4 // the fused gradient component stays in a register
		default:
			cost.Flops++
		}
	}
	return cost
}

// cost prices the whole kernel: the per-pass costs summed, then repriced
// under the schedule:
//
//   - tiling moves each stencil's field-neighbour bytes from global to
//     local memory and adds one halo-redundant stage-in per staged
//     array (factor h = (TX+2)(TY+2)/(TX*TY) per element);
//   - vectorized access sets the cost's VectorWidth so the device model
//     applies its effective-bandwidth gain;
//   - temporal blocking deletes the fused intermediates' global
//     round-trip (store + reload become local traffic) and charges the
//     producer pass's halo recompute (factor h-1) in flops and loads.
//
// The flat generator's zero schedule takes none of the branches, so flat
// costs — and with them every Table-II-style ordering — are the plain
// sum.
func (g *generator) cost() ocl.Cost {
	var total ocl.Cost
	for p := range g.low.Passes {
		total = total.Add(g.passCost(p))
	}
	s := g.sched
	spec := s.Spec

	h := 1.0
	if spec.Tiled() {
		h = float64((spec.TileX+2)*(spec.TileY+2)) / float64(spec.TileX*spec.TileY)

		staged := make(map[string]bool, len(s.Staged))
		for _, st := range s.Staged {
			staged[st.Field] = true
		}
		g.stencils(-1, func(in *vm.Instr, field string) {
			if !staged[field] {
				return
			}
			fb := float64(gradFieldBytes)
			if in.Filter() != "grad3d" {
				fb = gradAxisFieldBytes
			}
			total.LoadBytes -= fb
			total.LocalBytes += fb
		})
		for _, st := range s.Staged {
			if g.fused[st.Field] {
				continue // temporally fused: recomputed locally, never staged from global
			}
			total.LoadBytes += 4 * h
			total.LocalBytes += 4 * h
		}
	}

	if s.VectorStage || len(s.VectorLoads) > 0 {
		total.VectorWidth = spec.Vector
	}

	if s.Temporal {
		for bi, b := range g.low.Buffers {
			if !g.fused[b.Name] {
				continue
			}
			w := float64(b.Width)
			total.StoreBytes -= 4 * w
			total.LocalBytes += 4 * w * h
			if g.reloaded(bi) {
				total.LoadBytes -= 4 * w
				total.LocalBytes += 4 * w
			}
		}
		pre := g.passCost(0)
		total.Flops += pre.Flops * (h - 1)
		total.LoadBytes += pre.LoadBytes * (h - 1)
	}
	return total
}

// reloaded reports whether any pass loads the buffer back into a
// register — a later-pass consumer other than a stencil reading it as
// its field (stencil field reads are covered by the grad cost, not a
// load), or the final store of a root computed in an earlier pass.
func (g *generator) reloaded(buf int) bool {
	for _, pass := range g.low.Passes {
		for i := range pass {
			if in := &pass[i]; in.Filter() == "load" && int(in.Buf) == buf {
				return true
			}
		}
	}
	return false
}
