package strategy

import (
	"fmt"

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

// Tiered is the tiered execution model: each execution picks the host
// VM for small requests (N strictly below Threshold) and Fusion
// otherwise. The choice is per-binding and made inside one immutable
// plan, so a prepared expression serves any mesh size and the decision
// is stable across repeated Prepare calls by construction.
type Tiered struct {
	// Threshold is the cell-count cutover; 0 means DefaultVMThreshold.
	Threshold int
}

// Name returns "tiered".
func (Tiered) Name() string { return "tiered" }

// threshold returns the configured cutover with the default applied.
func (t Tiered) threshold() int {
	if t.Threshold < 1 {
		return DefaultVMThreshold
	}
	return t.Threshold
}

// PlanVariant distinguishes tiered configurations in the plan cache by
// threshold: "tiered@N".
func (t Tiered) PlanVariant() string {
	return fmt.Sprintf("tiered@%d", t.threshold())
}

// tieredPlan pins both tiers' plans; Execute picks per binding.
type tieredPlan struct {
	planBase
	threshold int
	vm        Plan
	dev       Plan
}

// Plan plans both tiers. The fusion device tier hands its lowered
// program to the vm tier, so the network lowers once.
func (t Tiered) Plan(net *dataflow.Network, dev *ocl.Device) (Plan, error) {
	base, err := newPlanBase("tiered", net)
	if err != nil {
		return nil, err
	}
	devPlan, err := Fusion{}.Plan(net, dev)
	if err != nil {
		return nil, err
	}
	hostBase := base
	hostBase.name = "vm" // the tier reports itself, not "tiered", as Resolved
	return &tieredPlan{planBase: base, threshold: t.threshold(),
		vm: &vmPlan{planBase: hostBase, prog: devPlan.(*fusionPlan).prog.Exec}, dev: devPlan}, nil
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
