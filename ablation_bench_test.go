package dfg_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - common sub-expression elimination (the parser's "limited CSE"),
//   - the streaming tile count (future-work strategy).
//
// The staged strategy's refcount ablation reaches an unexported planner,
// so its benchmark lives in internal/strategy.
//
// Each reports the modeled device time and/or peak device memory so the
// effect of the design choice is visible next to the wall time.

import (
	"fmt"
	"testing"

	"dfg"
	"dfg/internal/expr"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/strategy"
	"dfg/internal/vm"
	"dfg/internal/vm/vmtest"
	"dfg/internal/vortex"
)

// BenchmarkAblation_CSE compares the staged execution of Q-criterion
// with and without common sub-expression elimination. Without CSE every
// du[1]-style component is decomposed at every use, adding kernel
// dispatches and device traffic.
func BenchmarkAblation_CSE(b *testing.B) {
	m, f := benchGrid(b)
	bind := benchBindings(b, m, f)
	for _, cse := range []bool{true, false} {
		name := "with-cse"
		if !cse {
			name = "without-cse"
		}
		b.Run(name, func(b *testing.B) {
			p, err := expr.Parse(vortex.QCritExpr)
			if err != nil {
				b.Fatal(err)
			}
			net, err := expr.BuildNetworkWithDefinitions(p, nil)
			if err != nil {
				b.Fatal(err)
			}
			if cse {
				if _, err := passes.Paper.Run(net); err != nil {
					b.Fatal(err)
				}
			}
			s, _ := strategy.ForName("staged")
			var kernels, devNs float64
			for i := 0; i < b.N; i++ {
				env := ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
				res, err := strategy.Execute(s, env, net, bind)
				if err != nil {
					b.Fatal(err)
				}
				kernels = float64(res.Profile.Kernels)
				devNs = float64(res.Profile.DeviceTime().Nanoseconds())
			}
			b.ReportMetric(kernels, "kernels/op")
			b.ReportMetric(devNs, "modeled-ns/op")
		})
	}
}

// BenchmarkAblation_StreamingTiles sweeps the streaming strategy's tile
// count on Q-criterion: more tiles shrink peak memory but add kernel
// launches and halo re-uploads.
func BenchmarkAblation_StreamingTiles(b *testing.B) {
	m, f := benchGrid(b)
	bind := benchBindings(b, m, f)
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		b.Fatal(err)
	}
	for _, tiles := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("tiles-%d", tiles), func(b *testing.B) {
			s := strategy.Strategy{Kind: strategy.Streaming, Tiles: tiles}
			var peak, devNs float64
			for i := 0; i < b.N; i++ {
				env := ocl.NewEnv(ocl.NewDevice(ocl.TeslaM2050Spec(64)))
				res, err := strategy.Execute(s, env, net, bind)
				if err != nil {
					b.Fatal(err)
				}
				peak = float64(res.PeakBytes)
				devNs = float64(res.Profile.DeviceTime().Nanoseconds())
			}
			b.ReportMetric(peak, "peak-device-B")
			b.ReportMetric(devNs, "modeled-ns/op")
		})
	}
}

// BenchmarkAblation_VMTier compares end-to-end warm Q-criterion
// evaluation on the host bytecode VM against the fusion strategy at
// small mesh sizes — the measurement behind the tiered planner's
// default threshold. At these sizes the device strategies' fixed
// per-run transfer and launch overhead dwarfs the arithmetic; the VM
// runs the same fused pipeline out of pooled host scratch with zero
// device traffic.
func BenchmarkAblation_VMTier(b *testing.B) {
	for _, side := range []int{4, 8, 16} {
		m, err := dfg.NewUniformMesh(dfg.Dims{NX: side, NY: side, NZ: side},
			1.0/float32(side), 1.0/float32(side), 1.0/float32(side))
		if err != nil {
			b.Fatal(err)
		}
		f := dfg.GenerateRT(m, 11)
		fields := dfg.FieldInputs(f)
		for _, strat := range []string{"vm", "fusion"} {
			b.Run(fmt.Sprintf("%s-%dcubed", strat, side), func(b *testing.B) {
				eng, err := dfg.New(dfg.Config{Device: dfg.CPU, Strategy: strat})
				if err != nil {
					b.Fatal(err)
				}
				pr, err := eng.Prepare(dfg.QCriterionExpr)
				if err != nil {
					b.Fatal(err)
				}
				defer pr.Close()
				if _, err := pr.EvalMesh(m, fields); err != nil { // cold run
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pr.EvalMesh(m, fields); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblation_ExecutorMode compares the blocked (NumExpr-style)
// executor behind the fused kernel against the per-element reference
// interpreter the differential tests use as oracle, on the Q-criterion
// program. Results are bitwise identical; only host wall time differs.
func BenchmarkAblation_ExecutorMode(b *testing.B) {
	m, f := benchGrid(b)
	bind := benchBindings(b, m, f)
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		b.Fatal(err)
	}
	low, err := vm.Lower(net)
	if err != nil {
		b.Fatal(err)
	}
	views := make([]ocl.View, len(low.Buffers))
	for i, a := range low.Buffers {
		data := bind.Sources[a.Name].Data
		if a.Kind != vm.BufSource {
			data = make([]float32, bind.N*a.Width)
		}
		views[i] = ocl.View{Data: data, Elems: bind.N, Width: a.Width}
	}
	prog := low.Program()
	for name, run := range map[string]func(){
		"blocked":   func() { prog.RunPass(0, 0, bind.N, views) },
		"reference": func() { vmtest.Reference(low, bind.N, views) },
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bind.N) * 4)
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
