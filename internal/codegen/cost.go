package codegen

import (
	"dfg/internal/kernels"
	"dfg/internal/ocl"
	"dfg/internal/vm"
)

// passCost folds one pass's per-element cost from its instructions: the
// primitives' costs summed, minus the global loads and stores fusion
// keeps in registers.
func passCost(pass []vm.Instr) ocl.Cost {
	var cost ocl.Cost
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

// cost prices the whole kernel: the per-pass costs summed.
func cost(low *vm.Lowering) ocl.Cost {
	var total ocl.Cost
	for _, pass := range low.Passes {
		total = total.Add(passCost(pass))
	}
	return total
}
