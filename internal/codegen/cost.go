package codegen

import (
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
			// three axes of neighbour loads plus coordinate lookups; the
			// float4 result is a register until a store writes it
			cost = cost.Add(ocl.Cost{Flops: 15, LoadBytes: 40})
		case "grad3dx", "grad3dy", "grad3dz":
			// two neighbour loads of the field and of one coordinate array
			cost = cost.Add(ocl.Cost{Flops: 5, LoadBytes: 16})
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
