package strategy

import (
	"dfg/internal/dataflow"
	"dfg/internal/ocl"
)

// DefaultVMThreshold is the tiered strategy's default cutover: requests
// strictly below this many cells run on the host VM, the rest on the
// device strategy. It matches the simulated device's inline-execution
// grain — at or below it a kernel launch runs single-goroutine anyway,
// so the device adds transfer and event overhead without adding
// parallelism.
const DefaultVMThreshold = 4096

// planTiered plans the tiered execution model: each execution picks the
// host VM for small requests (N strictly below threshold) and fusion
// otherwise. The choice is per-binding and made inside one immutable
// plan, so a prepared expression serves any mesh size and the decision
// is stable across repeated Prepare calls by construction.
//
// Both tiers are planned here. The fusion device tier hands its
// validated order and its lowered program to the vm tier, so the
// network is validated and lowered once.
func planTiered(net *dataflow.Network, threshold int) (Plan, error) {
	devPlan, err := planFusion(net)
	if err != nil {
		return nil, err
	}
	fused := devPlan.(*devicePlan)
	base, hostBase := fused.planBase, fused.planBase
	base.name = "tiered"
	hostBase.name = "vm" // the tier reports itself, not "tiered", as Resolved
	return &tieredPlan{planBase: base, threshold: threshold,
		vm: &vmPlan{planBase: hostBase, prog: fused.prog.Exec}, dev: devPlan}, nil
}

// tieredPlan pins both tiers' plans; Execute picks per binding.
type tieredPlan struct {
	planBase
	threshold int
	vm        Plan
	dev       Plan
}

// Execute routes the binding to its tier: VM strictly below the
// threshold, the device strategy at or above it. The result's Resolved
// field names the tier that ran, so metrics and the perf database can
// attribute the evaluation to the real execution path instead of the
// opaque "tiered" label.
func (p *tieredPlan) Execute(env *ocl.Env, bind Bindings) (Result, error) {
	tier := p.dev
	if bind.N > 0 && bind.N < p.threshold {
		tier = p.vm
	}
	res, err := tier.Execute(env, bind)
	if err == nil && res.Resolved == "" {
		res.Resolved = tier.Strategy()
	}
	return res, err
}
