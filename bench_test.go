package dfg_test

// One benchmark per table and figure of the paper's evaluation section.
// `go test -bench=. -benchmem` exercises all of them at laptop scale;
// cmd/dfg-bench regenerates the full tables. Each Figure 5/6 benchmark
// reports the modeled device time (the quantity the paper plots) and
// the device-memory high-water mark as custom metrics alongside the
// real Go wall time.

import (
	"fmt"
	"testing"

	"dfg"
	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/metrics"
	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/par"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// benchGrid is Table I row 1 at 1/4 linear scale (147,456 cells), the
// sweet spot between realism and bench runtime.
func benchGrid(b *testing.B) (*mesh.Mesh, *rtsim.Field) {
	b.Helper()
	g := rtsim.TableIGrids(4)[0]
	m, err := mesh.NewUniform(g.Dims, 1.0/float32(g.Dims.NX), 1.0/float32(g.Dims.NY), 1.0/float32(g.Dims.NZ))
	if err != nil {
		b.Fatal(err)
	}
	return m, rtsim.Generate(m, rtsim.Options{Seed: 42})
}

func benchBindings(b *testing.B, m *mesh.Mesh, f *rtsim.Field) strategy.Bindings {
	b.Helper()
	bind, err := strategy.BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		b.Fatal(err)
	}
	return bind
}

// BenchmarkTableI_Generate measures synthetic RT data generation for the
// first Table I sub-grid (the "read the data set" step of every run).
func BenchmarkTableI_Generate(b *testing.B) {
	g := rtsim.TableIGrids(4)[0]
	m, err := mesh.NewUniform(g.Dims, 1, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.Cells) * 3 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtsim.Generate(m, rtsim.Options{Seed: int64(i)})
	}
}

// BenchmarkTableII_Counts measures the front end plus counting runs that
// regenerate Table II (parse -> network -> all strategies on a small
// grid).
func BenchmarkTableII_Counts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := metrics.TableIIAt(""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_Schematic measures the analytical strategy memory model
// on the paper's example network.
func BenchmarkFig2_Schematic(b *testing.B) {
	nodes := metrics.Fig2Network()
	for i := 0; i < b.N; i++ {
		for _, s := range []string{"roundtrip", "staged", "fusion"} {
			if _, err := metrics.SchematicMemory(nodes, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3_Parse measures the expression front end on the paper's
// three expressions (Figure 3): lex + LALR parse + network emission +
// CSE.
func BenchmarkFig3_Parse(b *testing.B) {
	for _, e := range vortex.Expressions() {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := expr.Compile(e.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4_FusionCodegen measures the dynamic kernel generator on
// the Q-criterion network (Figure 4): the cost of generating the fused
// kernel source and executable plan.
func BenchmarkFig4_FusionCodegen(b *testing.B) {
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := strategy.GeneratedSource(net, "qcrit"); err != nil {
			b.Fatal(err)
		}
	}
}

// fig5Case runs one (expression, executor, device) cell of Figure 5,
// reporting the modeled device time and peak device memory the paper
// plots in Figures 5 and 6.
func fig5Case(b *testing.B, exprName string, exec metrics.Executor, spec ocl.DeviceSpec, net *dataflow.Network, bind strategy.Bindings) {
	b.Helper()
	var devNs, peak float64
	for i := 0; i < b.N; i++ {
		env := ocl.NewEnv(ocl.NewDevice(spec))
		res, err := exec.Run(env, net, bind, exprName)
		if err != nil {
			b.Fatal(err)
		}
		devNs = float64(res.Profile.DeviceTime().Nanoseconds())
		peak = float64(res.PeakBytes)
	}
	b.ReportMetric(devNs, "modeled-ns/op")
	b.ReportMetric(peak, "peak-device-B")
}

// BenchmarkFig5 runs the full runtime-study matrix on the first Table I
// sub-grid: 3 expressions x 4 executors x 2 devices.
func BenchmarkFig5(b *testing.B) {
	m, f := benchGrid(b)
	bind := benchBindings(b, m, f)
	nets := map[string]*dataflow.Network{}
	for _, e := range vortex.Expressions() {
		net, err := expr.Compile(e.Text)
		if err != nil {
			b.Fatal(err)
		}
		nets[e.Name] = net
	}
	for _, e := range vortex.Expressions() {
		for _, spec := range []ocl.DeviceSpec{ocl.XeonX5660Spec(64), ocl.TeslaM2050Spec(64)} {
			for _, exec := range metrics.Executors() {
				name := fmt.Sprintf("%s/%s/%s", e.Name, spec.Type, exec.Name)
				b.Run(name, func(b *testing.B) {
					fig5Case(b, e.Name, exec, spec, nets[e.Name], bind)
				})
			}
		}
	}
}

// BenchmarkFig6_MemorySweep runs the memory study's hungriest case
// (staged Q-criterion) and reports the high-water mark that determines
// the paper's GPU failures.
func BenchmarkFig6_MemorySweep(b *testing.B) {
	m, f := benchGrid(b)
	bind := benchBindings(b, m, f)
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		b.Fatal(err)
	}
	s, _ := strategy.ForName("staged")
	var peak float64
	for i := 0; i < b.N; i++ {
		env := ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
		res, err := strategy.Execute(s, env, net, bind)
		if err != nil {
			b.Fatal(err)
		}
		peak = float64(res.PeakBytes)
	}
	b.ReportMetric(peak, "peak-device-B")
}

// BenchmarkAblation_OptLevel is the optimisation-level ablation: the
// Q-criterion expression compiled at the Paper level versus O2, run
// over the first Table I sub-grids, reporting the kernel launches,
// host-to-device transfers and modeled device time each level pays.
// The kernel and transfer counts are size-independent, so the per-grid
// series shows how the O2 savings (67 -> 55 staged launches from
// gradient-axis forwarding and commuted CSE) scale with cell count.
func BenchmarkAblation_OptLevel(b *testing.B) {
	levels := []passes.Level{passes.LevelPaper, passes.LevelO2}
	nets := map[passes.Level]*dataflow.Network{}
	for _, lvl := range levels {
		net, _, err := expr.CompileWithPipeline(vortex.QCritExpr, nil, passes.ForLevel(lvl), passes.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		nets[lvl] = net
	}
	grids := rtsim.TableIGrids(4)[:2]
	for _, lvl := range levels {
		for _, g := range grids {
			m, err := mesh.NewUniform(g.Dims, 1.0/float32(g.Dims.NX), 1.0/float32(g.Dims.NY), 1.0/float32(g.Dims.NZ))
			if err != nil {
				b.Fatal(err)
			}
			f := rtsim.Generate(m, rtsim.Options{Seed: 42})
			bind := benchBindings(b, m, f)
			for _, sname := range []string{"staged", "fusion"} {
				s, _ := strategy.ForName(sname)
				b.Run(fmt.Sprintf("%s/%s/%s", lvl, g.Dims, sname), func(b *testing.B) {
					var prof ocl.Profile
					for i := 0; i < b.N; i++ {
						env := ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
						res, err := strategy.Execute(s, env, nets[lvl], bind)
						if err != nil {
							b.Fatal(err)
						}
						prof = res.Profile
					}
					b.ReportMetric(float64(prof.Kernels), "kernels/op")
					b.ReportMetric(float64(prof.Writes), "dev-writes/op")
					b.ReportMetric(float64(prof.DeviceTime().Nanoseconds()), "modeled-ns/op")
				})
			}
		}
	}
}

// BenchmarkFig7_Distributed runs a reduced version of the paper's
// 3072-block distributed Q-criterion evaluation (64 blocks, 8 ranks,
// 2 GPUs per node, ghost exchange, fusion).
func BenchmarkFig7_Distributed(b *testing.B) {
	cfg := par.Config{
		Domain:      mesh.Dims{NX: 32, NY: 32, NZ: 32},
		Parts:       [3]int{4, 4, 4},
		Ranks:       8,
		GPUsPerNode: 2,
		Seed:        42,
		MemScale:    4096,
	}
	b.SetBytes(int64(cfg.Domain.Cells()) * 3 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := par.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEval measures the engine hot path with and without
// observability attached. The uninstrumented variant is the overhead
// acceptance check for the nil-tracer no-op path: every span call sites
// still executes, but with a nil tracer no clock is read and nothing
// allocates, so it should be within noise (<2%) of the pre-tracing
// engine. The instrumented variant prices full span trees + histogram
// observation per eval.
func BenchmarkEngineEval(b *testing.B) {
	m, f := benchGrid(b)
	inputs := dfg.FieldInputs(f)
	n := m.Cells()
	run := func(b *testing.B, instrument bool) {
		eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion", MemScale: 64})
		if err != nil {
			b.Fatal(err)
		}
		if instrument {
			eng.Instrument(obs.NewTracer(obs.DefaultKeep), obs.NewRegistry())
		}
		b.SetBytes(int64(n) * 3 * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Eval("q = sqrt(u*u + v*v + w*w)", n, inputs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uninstrumented", func(b *testing.B) { run(b, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true) })
}

// BenchmarkHostInterface measures the public API end to end (what a
// host application pays per time step): expression cache hit, binding,
// fusion execution, result copy-back.
func BenchmarkHostInterface(b *testing.B) {
	m, f := benchGrid(b)
	eng, err := dfg.New(dfg.Config{Device: dfg.GPU, Strategy: "fusion", MemScale: 64})
	if err != nil {
		b.Fatal(err)
	}
	inputs := dfg.FieldInputs(f)
	b.SetBytes(int64(m.Cells()) * 3 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.EvalOnMesh(dfg.QCriterionExpr, m, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmEval64 times the in-situ warm path at the repository
// benchmark's insitu_large shape — a prepared fusion Q-criterion on a
// 64^3 mesh — in three rows: unchanged fields (what insitu_large
// times), one field rewritten before every evaluation, and all three
// rewritten (an in-situ step with new data). A rewritten field
// alternates between two generated sets, so each evaluation binds bytes
// that differ from the last from the first cell on.
func BenchmarkWarmEval64(b *testing.B) {
	m, err := dfg.NewUniformMesh(dfg.Dims{NX: 64, NY: 64, NZ: 64}, 1.0/64, 1.0/64, 1.0/64)
	if err != nil {
		b.Fatal(err)
	}
	sets := [2]map[string][]float32{dfg.FieldInputs(dfg.GenerateRT(m, 1)), dfg.FieldInputs(dfg.GenerateRT(m, 2))}
	rows := []struct {
		name    string
		changed []string // fields taken from the other set on odd evaluations
	}{
		{"unchanged", nil},
		{"one-field-changed", []string{"u"}},
		{"all-changed", []string{"u", "v", "w"}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: "fusion"})
			if err != nil {
				b.Fatal(err)
			}
			prep, err := eng.Prepare(dfg.QCriterionExpr)
			if err != nil {
				b.Fatal(err)
			}
			defer prep.Close()
			var binds [2]map[string][]float32
			for i := range binds {
				binds[i] = map[string][]float32{"u": sets[0]["u"], "v": sets[0]["v"], "w": sets[0]["w"]}
				for _, name := range row.changed {
					binds[i][name] = sets[i][name]
				}
			}
			if _, err := prep.EvalMesh(m, binds[1]); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(m.Cells()) * 3 * 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.EvalMesh(m, binds[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
