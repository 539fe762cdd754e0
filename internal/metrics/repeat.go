package metrics

import (
	"fmt"

	"dfg"
	"dfg/internal/mesh"
	"dfg/internal/rtsim"
	"dfg/internal/strategy"
	"dfg/internal/vm"
	"dfg/internal/vortex"
)

// RepeatCase is one (strategy) warm-vs-cold comparison: the expression
// is prepared once, evaluated cold (first call, empty arena), then
// evaluated warm repeatedly over the same inputs. Cold pays the full
// allocation and upload bill; warm evals should recycle every device
// buffer from the arena and skip the upload of every mesh-derived
// source, which stays resident (a field is charged its write every eval).
type RepeatCase struct {
	Strategy string
	// ColdAllocs / WarmAllocs count fresh device-buffer allocations
	// during the cold eval and across all warm evals combined.
	ColdAllocs int64
	WarmAllocs int64
	// ColdWrites / WarmWrites count host-to-device transfer events
	// (cold eval vs all warm evals combined).
	ColdWrites int
	WarmWrites int
	// Reused counts arena free-list hits and UploadsSkipped the binds
	// of a stable array already resident, both across the warm evals.
	Reused         int64
	UploadsSkipped int64
	// ScratchColdAllocs / ScratchWarmAllocs count fresh host-scratch
	// slices the executor's pool allocated (cold eval vs all warm evals
	// combined). Recorded for the "vm" row only, where they are the
	// warm-path gate (the VM touches no device memory at all) and exact:
	// one sweep draws its storage in a fixed order. The fused kernel
	// draws a register slab per launch chunk from the same pool, so on a
	// device row the count would depend on how far the chunks' goroutines
	// happened to overlap; its Go-heap gate is the single-chunk
	// TestWarmFusionGoHeapGate instead.
	ScratchColdAllocs int64
	ScratchWarmAllocs int64
	// Identical reports whether every warm output was bitwise equal to
	// the cold output.
	Identical bool
}

// Reduced reports whether the warm path actually beat the cold path:
// no fresh allocations and bitwise-identical output. Device strategies
// are judged on device-buffer allocations; the host VM holds no device
// buffers (all its counters must stay zero) and is judged on its host
// scratch pool instead. This is the CI smoke gate for the prepared-plan
// machinery.
func (c RepeatCase) Reduced() bool {
	if c.Strategy == "vm" {
		return c.Identical &&
			c.ColdAllocs == 0 && c.WarmAllocs == 0 &&
			c.ColdWrites == 0 && c.WarmWrites == 0 &&
			c.ScratchColdAllocs > 0 && c.ScratchWarmAllocs == 0
	}
	return c.Identical && c.WarmAllocs == 0 && c.ColdAllocs > 0
}

// BatchOfOneName is the pseudo-strategy naming the batch-of-one repeat
// case: the Q-criterion expression prepared twice in one handle on a
// fusion engine. The two texts deduplicate to one, and the one-text
// path makes this indistinguishable from the plain fusion row — the
// case is the perf gate pinning that batching never taxes a lone
// request.
const BatchOfOneName = "batch1"

// RepeatNames is the full warm-vs-cold case list: every strategy plus
// the batch-of-one pseudo-strategy.
func RepeatNames() []string {
	return append(strategy.ExtendedNames(), BatchOfOneName)
}

// RunRepeat runs the warm-vs-cold comparison for the paper's Q-criterion
// expression (the most buffer-hungry of the Figure 3 expressions) under
// every strategy plus the batch-of-one case, with warm repeated
// evaluations per case. The grid is fixed and small — the point is
// allocation and transfer counting, not runtime. The counts are
// deterministic: RepeatTable of RunRepeat(3) is pinned byte for byte by
// testdata/repeat.golden.
func RunRepeat(warm int) ([]RepeatCase, error) {
	if warm < 1 {
		warm = 3
	}
	d := mesh.Dims{NX: 24, NY: 24, NZ: 24}
	m, err := mesh.NewUniform(d, 1.0/float32(d.NX), 1.0/float32(d.NY), 1.0/float32(d.NZ))
	if err != nil {
		return nil, err
	}
	f := rtsim.Generate(m, rtsim.Options{Seed: 42})
	fields := map[string][]float32{"u": f.U, "v": f.V, "w": f.W}

	names := RepeatNames()
	out := make([]RepeatCase, 0, len(names))
	for _, name := range names {
		c, err := repeatCase(name, m, fields, warm)
		if err != nil {
			return nil, fmt.Errorf("repeat %s: %w", name, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// repeatCase measures one strategy's cold and warm behavior through the
// public Prepare/Eval API (for the batch-of-one pseudo-strategy, two
// copies of the expression in one handle over a fusion engine).
func repeatCase(strat string, m *mesh.Mesh, fields map[string][]float32, warm int) (RepeatCase, error) {
	if strat == "vm" {
		// The VM's pooling is process-global host scratch: start the case
		// from an empty pool so the cold/warm split is attributable.
		vm.DrainPool()
	}
	engStrat := strat
	if strat == BatchOfOneName {
		engStrat = "fusion"
	}
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: engStrat})
	if err != nil {
		return RepeatCase{}, err
	}
	texts := []string{vortex.QCritExpr}
	if strat == BatchOfOneName {
		texts = append(texts, vortex.QCritExpr)
	}
	pr, err := eng.Prepare(texts...)
	if err != nil {
		return RepeatCase{}, err
	}
	defer pr.Close()
	if pr.Fingerprint() != eng.Fingerprint(vortex.QCritExpr) {
		return RepeatCase{}, fmt.Errorf("batch of one missed the one-text path")
	}
	eval := func() (*dfg.Result, error) { return pr.EvalMesh(m, fields) }

	c := RepeatCase{Strategy: strat}

	before := eng.ArenaStats()
	scratchBefore := vm.Stats()
	cold, err := eval()
	if err != nil {
		return c, err
	}
	afterCold := eng.ArenaStats()
	scratchCold := vm.Stats()
	c.ColdAllocs = afterCold.Allocated - before.Allocated
	c.ColdWrites = cold.Profile.Writes
	if strat == "vm" {
		c.ScratchColdAllocs = scratchCold.Allocs - scratchBefore.Allocs
	}

	c.Identical = true
	for i := 0; i < warm; i++ {
		res, err := eval()
		if err != nil {
			return c, err
		}
		c.WarmWrites += res.Profile.Writes
		if !bitwiseEqual(cold.Data, res.Data) {
			c.Identical = false
		}
	}
	afterWarm := eng.ArenaStats()
	scratchWarm := vm.Stats()
	c.WarmAllocs = afterWarm.Allocated - afterCold.Allocated
	c.Reused = afterWarm.Reused - afterCold.Reused
	c.UploadsSkipped = afterWarm.UploadsSkipped - afterCold.UploadsSkipped
	if strat == "vm" {
		c.ScratchWarmAllocs = scratchWarm.Allocs - scratchCold.Allocs
	}
	return c, nil
}

// bitwiseEqual compares two float32 slices exactly (NaN-safe: the
// comparison is on the stored bits via ==, and the synthetic RT fields
// produce no NaNs).
func bitwiseEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RepeatTable renders the warm-vs-cold comparison as an aligned table.
func RepeatTable(cases []RepeatCase) *Table {
	t := NewTable("Warm vs cold prepared evaluation (Q-criterion)",
		"Strategy", "Cold allocs", "Warm allocs", "Cold Dev-W", "Warm Dev-W", "Reused", "Skipped", "Scr cold", "Scr warm", "Identical")
	for _, c := range cases {
		t.Addf("%s|%d|%d|%d|%d|%d|%d|%d|%d|%v", c.Strategy,
			c.ColdAllocs, c.WarmAllocs, c.ColdWrites, c.WarmWrites,
			c.Reused, c.UploadsSkipped, c.ScratchColdAllocs, c.ScratchWarmAllocs, c.Identical)
	}
	return t
}
