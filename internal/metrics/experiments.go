package metrics

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// Config scopes an evaluation sweep.
type Config struct {
	// LinScale divides every grid dimension (device memory is divided
	// by LinScale^3 to preserve the failure pattern). Default 4.
	LinScale int
	// MaxGrids limits the sweep to the first N Table I sub-grids
	// (0 = all twelve).
	MaxGrids int
	// Repeats runs each case this many times; like the paper, the
	// fastest and slowest results are dropped and the rest averaged
	// (needs Repeats >= 3 for trimming; default 1, paper used 7).
	Repeats int
	// Seed generates the synthetic RT data.
	Seed int64
	// IncludeStreaming adds the future-work streaming strategy to the
	// executor set (the paper's §VI proposal, evaluated here).
	IncludeStreaming bool
	// Opt selects the optimisation level expressions compile at: ""
	// or "paper" for the paper's exact front end (the default every
	// reproduction table uses), "O2" for the optimising pass pipeline.
	Opt string
}

func (c *Config) defaults() {
	if c.LinScale < 1 {
		c.LinScale = 4
	}
	if c.Repeats < 1 {
		c.Repeats = 1
	}
	if c.MaxGrids < 0 {
		c.MaxGrids = 0
	}
}

// memScale derives the device-memory divisor paired with the grid scale.
func (c Config) memScale() int64 {
	s := int64(c.LinScale)
	return s * s * s
}

// Executor is one way to run an expression on a device: the three
// strategies plus the paper's hand-written reference kernel.
type Executor struct {
	Name string
	run  func(env *ocl.Env, net *dataflow.Network, bind strategy.Bindings, exprName string) (strategy.Result, error)
}

// Run executes one case on the environment. exprName selects the
// reference kernel when the executor is "reference"; the strategies use
// the compiled network.
func (e Executor) Run(env *ocl.Env, net *dataflow.Network, bind strategy.Bindings, exprName string) (strategy.Result, error) {
	return e.run(env, net, bind, exprName)
}

// Executors returns the four executors in the paper's order.
func Executors() []Executor {
	out := make([]Executor, 0, 4)
	for _, name := range strategy.Names() {
		s, _ := strategy.ForName(name)
		out = append(out, Executor{
			Name: name,
			run: func(env *ocl.Env, net *dataflow.Network, bind strategy.Bindings, _ string) (strategy.Result, error) {
				return strategy.Execute(s, env, net, bind)
			},
		})
	}
	out = append(out, Executor{Name: "reference", run: runReference})
	return out
}

// ExtendedExecutors adds the future-work streaming strategy (§VI of the
// paper) to the sweep — the "streaming context" study the authors
// propose. Streaming tiles the mesh so even the cases that fail on the
// GPU under every paper strategy complete.
func ExtendedExecutors() []Executor {
	s := strategy.Strategy{Kind: strategy.Streaming, Tiles: 8}
	return append(Executors(), Executor{
		Name: "streaming",
		run: func(env *ocl.Env, net *dataflow.Network, bind strategy.Bindings, _ string) (strategy.Result, error) {
			return strategy.Execute(s, env, net, bind)
		},
	})
}

// runReference executes the hand-written kernel for the expression.
func runReference(env *ocl.Env, _ *dataflow.Network, bind strategy.Bindings, exprName string) (strategy.Result, error) {
	k, argNames, err := vortex.ReferenceKernel(exprName)
	if err != nil {
		return strategy.Result{}, err
	}
	env.Reset()
	bufs := make([]*ocl.Buffer, 0, len(argNames)+1)
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()
	for _, name := range argNames {
		src, ok := bind.Sources[name]
		if !ok {
			return strategy.Result{}, fmt.Errorf("metrics: reference kernel needs source %q", name)
		}
		b, err := env.Upload(name, src.Data, src.Width)
		if err != nil {
			return strategy.Result{}, err
		}
		bufs = append(bufs, b)
	}
	out, err := env.NewBuffer("out", bind.N, 1)
	if err != nil {
		return strategy.Result{}, err
	}
	bufs = append(bufs, out)
	if err := env.Run(k, bind.N, bufs); err != nil {
		return strategy.Result{}, err
	}
	data, err := env.Download(out)
	if err != nil {
		return strategy.Result{}, err
	}
	return strategy.Result{
		Data: data, Width: 1,
		Profile:   env.Profile(),
		PeakBytes: env.PeakBytes(),
		Events:    env.Queue().Events(),
	}, nil
}

// CaseResult is one (expression, executor, device, grid) measurement.
type CaseResult struct {
	Expr     string
	Opt      string // optimisation level the expression compiled at
	Exec     string
	Device   ocl.DeviceType
	Grid     rtsim.Grid
	Failed   bool
	Reason   string
	Device1  string
	Profile  ocl.Profile
	DevTime  time.Duration // modeled device time (trimmed mean)
	PeakMem  int64
	GPULimit int64 // the GPU's global memory at this scale
}

// Key renders a compact case identity.
func (c CaseResult) Key() string {
	return fmt.Sprintf("%s/%s/%v/%s", c.Expr, c.Exec, c.Device, c.Grid.Dims)
}

// RunCases performs the full single-device sweep behind Figures 5 and 6:
// every Table I sub-grid x three expressions x four executors x two
// devices. GPU cases whose buffers exceed the (scaled) 3 GB fail and are
// recorded as the paper's gray series.
func RunCases(cfg Config) ([]CaseResult, error) {
	cfg.defaults()
	lvl, err := passes.ParseLevel(cfg.Opt)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	cfg.Opt = lvl.String()
	grids := rtsim.TableIGrids(cfg.LinScale)
	if cfg.MaxGrids > 0 && cfg.MaxGrids < len(grids) {
		grids = grids[:cfg.MaxGrids]
	}

	nets := make(map[string]*dataflow.Network)
	for _, e := range vortex.Expressions() {
		net, _, err := expr.CompileWithPipeline(e.Text, nil, passes.ForLevel(lvl), passes.RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("metrics: compile %s: %w", e.Name, err)
		}
		nets[e.Name] = net
	}

	specs := []ocl.DeviceSpec{ocl.XeonX5660Spec(cfg.memScale()), ocl.TeslaM2050Spec(cfg.memScale())}
	gpuLimit := specs[1].GlobalMemSize
	execs := Executors()
	if cfg.IncludeStreaming {
		execs = ExtendedExecutors()
	}

	var results []CaseResult
	for _, g := range grids {
		m, err := mesh.NewUniform(g.Dims, 1.0/float32(g.Dims.NX), 1.0/float32(g.Dims.NY), 1.0/float32(g.Dims.NZ))
		if err != nil {
			return nil, err
		}
		f := rtsim.Generate(m, rtsim.Options{Seed: cfg.Seed})
		bind, err := strategy.BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
		if err != nil {
			return nil, err
		}
		for _, e := range vortex.Expressions() {
			for _, spec := range specs {
				for _, ex := range execs {
					res := runCase(cfg, spec, ex, e.Name, nets[e.Name], bind, g)
					res.GPULimit = gpuLimit
					results = append(results, res)
				}
			}
		}
	}
	return results, nil
}

// runCase measures one case with the paper's repeat-and-trim protocol.
func runCase(cfg Config, spec ocl.DeviceSpec, ex Executor, exprName string, net *dataflow.Network, bind strategy.Bindings, g rtsim.Grid) CaseResult {
	out := CaseResult{Expr: exprName, Opt: cfg.Opt, Exec: ex.Name, Device: spec.Type, Grid: g, Device1: spec.Name}
	var devTimes []time.Duration
	var last strategy.Result
	for r := 0; r < cfg.Repeats; r++ {
		env := ocl.NewEnv(ocl.NewDevice(spec))
		res, err := ex.run(env, net, bind, exprName)
		if err != nil {
			out.Failed = true
			var ae *ocl.AllocError
			if errors.As(err, &ae) {
				out.Reason = fmt.Sprintf("out of device memory (%d B needed with %d B in use of %d B)",
					ae.Requested, ae.InUse, ae.Capacity)
			} else {
				out.Reason = err.Error()
			}
			return out
		}
		devTimes = append(devTimes, res.Profile.DeviceTime())
		last = res
	}
	out.Profile = last.Profile
	out.PeakMem = last.PeakBytes
	out.DevTime = trimmedMean(devTimes)
	return out
}

// trimmedMean drops the fastest and slowest measurements (when there are
// at least three) and averages the rest — the paper's protocol.
func trimmedMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	if len(ds) >= 3 {
		ds = ds[1 : len(ds)-1]
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
