// Package par simulates the paper's distributed-memory parallel
// evaluation (Section IV-D.3 / V-C): the full RT time step decomposed
// into sub-grids, processed by many MPI tasks across cluster nodes with
// two GPUs per node, each task running the framework in situ on its
// blocks with ghost data requested from the host application.
//
// Ranks are goroutines, each with its own simulated device and engine
// (the paper runs one framework instance per MPI task). Blocks are
// distributed round-robin; every block is ghost-grown by the
// expression's stencil depth so its stencils compute correct values on
// sub-grid boundaries, and each rank writes its interior results into
// the assembled global field.
// Tests verify the assembled field is seam-free against a single-grid
// golden computation — the property Figure 7's rendering demonstrates.
package par

import (
	"fmt"
	"sync"

	"dfg"
	"dfg/internal/compile"
	"dfg/internal/host"
	"dfg/internal/mesh"
	"dfg/internal/metrics"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/strategy"
)

// Config describes a distributed run.
type Config struct {
	// Domain is the global mesh extent; Parts the block decomposition
	// (the paper: 3072^3 into 16 x 16 x 12 = 3072 blocks of
	// 192 x 192 x 256).
	Domain mesh.Dims
	Parts  [3]int
	// Ranks is the number of MPI tasks (paper: 256, two per node).
	Ranks int
	// GPUsPerNode controls rank->device mapping (paper: 2).
	GPUsPerNode int
	// Expression is the derived field to compute (default Q-criterion).
	Expression string
	// Strategy is the execution strategy (default fusion).
	Strategy string
	// MemScale divides each GPU's memory (pair with scaled domains).
	MemScale int64
	// Seed generates the time step's data.
	Seed int64

	// ghostShort withholds that many ghost layers from the stencil
	// depth: tests use it to show the exchange is needed.
	ghostShort int
}

// RankReport is one MPI task's accounting.
type RankReport struct {
	Rank      int
	Node      int
	Device    string
	Blocks    int
	Cells     int
	Profile   ocl.Profile
	PeakBytes int64
}

// Report summarizes a distributed run.
type Report struct {
	Ranks      []RankReport
	Blocks     int
	TotalCells int
	// Output is the assembled global derived field.
	Output []float32
}

// Imbalance returns the ratio of the busiest rank's modeled device time
// to the mean (1.0 = perfectly balanced). The paper's round-robin block
// distribution balances well because blocks are equal-sized.
func (r *Report) Imbalance() float64 {
	if len(r.Ranks) == 0 {
		return 1
	}
	var sum, max float64
	active := 0
	for _, rk := range r.Ranks {
		d := float64(rk.Profile.DeviceTime())
		sum += d
		if d > max {
			max = d
		}
		if rk.Blocks > 0 {
			active++
		}
	}
	if active == 0 || sum == 0 {
		return 1
	}
	return max / (sum / float64(active))
}

// Table renders the per-rank accounting of a distributed run.
func (r *Report) Table() *metrics.Table {
	t := metrics.NewTable("Distributed run: per-rank accounting",
		"Rank", "Node", "Device", "Blocks", "Cells", "Dev-W", "K-Exe", "Device Time", "Peak Memory")
	for _, rk := range r.Ranks {
		t.Add(
			fmt.Sprintf("%d", rk.Rank),
			fmt.Sprintf("%d", rk.Node),
			rk.Device,
			fmt.Sprintf("%d", rk.Blocks),
			fmt.Sprintf("%d", rk.Cells),
			fmt.Sprintf("%d", rk.Profile.Writes),
			fmt.Sprintf("%d", rk.Profile.Kernels),
			rk.Profile.DeviceTime().String(),
			fmt.Sprintf("%d B", rk.PeakBytes),
		)
	}
	return t
}

// Run executes the distributed evaluation and returns the assembled
// derived field plus per-rank reports.
func Run(cfg Config) (*Report, error) {
	if cfg.Expression == "" {
		cfg.Expression = dfg.QCriterionExpr
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "fusion"
	}
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("par: need at least one rank")
	}
	if cfg.GPUsPerNode < 1 {
		cfg.GPUsPerNode = 2
	}
	if cfg.MemScale < 1 {
		cfg.MemScale = 1
	}

	m, err := mesh.NewUniform(cfg.Domain, 1, 1, 1)
	if err != nil {
		return nil, err
	}

	// The network fixes the ghost width: a block needs as many layers as
	// the expression's stencil depth. One compiler serves every rank, so
	// the expression compiles once.
	comp := compile.NewCompiler()
	net, _, err := comp.CompileTracedAt(cfg.Expression, passes.LevelPaper, nil)
	if err != nil {
		return nil, err
	}
	depth, err := strategy.StencilDepth(net)
	if err != nil {
		return nil, err
	}

	// The host application owns the data and fulfills the framework's
	// explicit ghost-data request.
	hostEng, err := dfg.New(dfg.Config{Device: dfg.CPU})
	if err != nil {
		return nil, err
	}
	app, err := host.NewApp(m, cfg.Seed, hostEng)
	if err != nil {
		return nil, err
	}
	blocks, err := app.GenerateGhostData(host.GhostRequest{Parts: cfg.Parts, Layers: depth - cfg.ghostShort})
	if err != nil {
		return nil, err
	}

	output := make([]float32, cfg.Domain.Cells())
	reports := make([]RankReport, cfg.Ranks)
	errs := make([]error, cfg.Ranks)

	var wg sync.WaitGroup
	for rank := 0; rank < cfg.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			reports[rank], errs[rank] = runRank(cfg, comp, rank, blocks, output)
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{Ranks: reports, Blocks: len(blocks), TotalCells: cfg.Domain.Cells(), Output: output}
	return rep, nil
}

// runRank processes one MPI task's round-robin share of the blocks on
// its own device, writing interior results into the shared output
// (regions are disjoint, so no synchronization is needed — exactly like
// ranks owning disjoint sub-grids).
func runRank(cfg Config, comp *compile.Compiler, rank int, blocks []host.GhostBlock, output []float32) (RankReport, error) {
	dev := ocl.NewDevice(ocl.TeslaM2050Spec(cfg.MemScale))
	eng, err := dfg.NewWith(dev, cfg.Strategy, comp)
	if err != nil {
		return RankReport{}, err
	}
	rep := RankReport{
		Rank:   rank,
		Node:   rank / cfg.GPUsPerNode,
		Device: fmt.Sprintf("%s #%d", dev.Name(), rank%cfg.GPUsPerNode),
	}

	var profile ocl.Profile
	whole := mesh.Extent{Hi: [3]int{cfg.Domain.NX, cfg.Domain.NY, cfg.Domain.NZ}}
	for bi := rank; bi < len(blocks); bi += cfg.Ranks {
		b := blocks[bi]
		res, err := eng.EvalOnMesh(cfg.Expression, b.Field.Mesh, map[string][]float32{
			"u": b.Field.U, "v": b.Field.V, "w": b.Field.W,
		})
		if err != nil {
			return rep, fmt.Errorf("par: rank %d block %d: %w", rank, bi, err)
		}
		if res.Width != 1 {
			return rep, fmt.Errorf("par: rank %d: expression output width %d unsupported", rank, res.Width)
		}
		if err := mesh.CopyBox(output, whole, res.Data, b.Grown, b.Box, 1); err != nil {
			return rep, fmt.Errorf("par: rank %d block %d: %w", rank, bi, err)
		}
		rep.Blocks++
		rep.Cells += b.Box.Cells()
		profile = profile.Add(res.Profile)
		if res.PeakDeviceBytes > rep.PeakBytes {
			rep.PeakBytes = res.PeakDeviceBytes
		}
	}
	rep.Profile = profile
	return rep, nil
}

// GoldenField computes the same derived field on the undecomposed global
// mesh for seam verification. Like Run, it binds the velocity fields
// u, v and w.
func GoldenField(cfg Config) ([]float32, *rtsim.Field, error) {
	m, err := mesh.NewUniform(cfg.Domain, 1, 1, 1)
	if err != nil {
		return nil, nil, err
	}
	f := rtsim.Generate(m, rtsim.Options{Seed: cfg.Seed})
	eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
	if err != nil {
		return nil, nil, err
	}
	expr := cfg.Expression
	if expr == "" {
		expr = dfg.QCriterionExpr
	}
	res, err := eng.EvalOnMesh(expr, m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		return nil, nil, err
	}
	return res.Data, f, nil
}
