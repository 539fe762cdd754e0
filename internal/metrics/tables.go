package metrics

import (
	"fmt"
	"strings"
	"time"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// TableI renders the paper's Table I: the evaluation sub-grids.
func TableI(linScale int) *Table {
	t := NewTable(fmt.Sprintf("Table I: RT sub-grids (linear scale 1/%d)", linScale),
		"Sub-grid Dimensions", "# of Cells", "Data Size")
	for _, g := range rtsim.TableIGrids(linScale) {
		t.Add(g.Dims.String(), groupDigits(g.Cells), g.DataSize())
	}
	return t
}

// groupDigits formats 9437184 as "9,437,184" (Table I's style).
func groupDigits(n int) string {
	s := fmt.Sprintf("%d", n)
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	return strings.Join(parts, ",")
}

// TableIIAt runs the three expressions under the three strategies on a
// small grid and renders the device-event counts — the paper's Table II.
// The counts are size-independent, so a small grid suffices. The
// expressions compile at the given optimisation level ("", "paper" or
// "O2"): the Paper-level table is the reproduction; the O2 table shows
// how many device events the optimising pipeline saves on the same
// expressions.
func TableIIAt(opt string) (*Table, error) {
	lvl, err := passes.ParseLevel(opt)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	m, err := mesh.NewUniform(mesh.Dims{NX: 8, NY: 8, NZ: 8}, 1, 1, 1)
	if err != nil {
		return nil, err
	}
	f := rtsim.Generate(m, rtsim.Options{Seed: 1})
	bind, err := strategy.BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		return nil, err
	}

	title := "Table II: device events per expression and strategy"
	if lvl != passes.LevelPaper {
		title += " (opt=" + lvl.String() + ")"
	}
	t := NewTable(title,
		"Expression", "Strategy", "Dev-W", "Dev-R", "K-Exe")
	for _, e := range vortex.Expressions() {
		net, _, err := expr.CompileWithPipeline(e.Text, nil, passes.ForLevel(lvl), passes.RunOptions{})
		if err != nil {
			return nil, err
		}
		for _, sname := range strategy.Names() {
			s, _ := strategy.ForName(sname)
			env := ocl.NewEnv(ocl.NewDevice(ocl.XeonX5660Spec(64)))
			res, err := strategy.Execute(s, env, net, bind)
			if err != nil {
				return nil, fmt.Errorf("metrics: %s/%s: %w", e.Name, sname, err)
			}
			p := res.Profile
			t.Add(e.Name, sname, fmt.Sprintf("%d", p.Writes), fmt.Sprintf("%d", p.Reads), fmt.Sprintf("%d", p.Kernels))
		}
	}
	return t, nil
}

// Fig5Table renders the runtime study: modeled device time per case,
// with failed GPU cases marked like the paper's gray series.
func Fig5Table(results []CaseResult) *Table {
	t := NewTable("Figure 5: single-device runtime (modeled device time)",
		"Expression", "Grid", "Cells", "Device", "Executor", "Runtime", "Status")
	for _, r := range results {
		status := "ok"
		runtime := fmtDuration(r.DevTime)
		if r.Failed {
			status = "FAILED"
			runtime = "-"
		}
		t.Add(r.Expr, r.Grid.Dims.String(), groupDigits(r.Grid.Cells), r.Device.String(), r.Exec, runtime, status)
	}
	return t
}

// Fig6Table renders the memory study: the device-buffer high-water mark
// per case, with the GPU's memory limit (the paper's green line).
func Fig6Table(results []CaseResult) *Table {
	t := NewTable("Figure 6: device global memory high-water mark",
		"Expression", "Grid", "Device", "Executor", "Peak Memory", "GPU Limit", "Status")
	for _, r := range results {
		status := "ok"
		peak := fmtBytes(r.PeakMem)
		if r.Failed {
			status = "FAILED"
			peak = "> " + fmtBytes(r.GPULimit)
		}
		t.Add(r.Expr, r.Grid.Dims.String(), r.Device.String(), r.Exec, peak, fmtBytes(r.GPULimit), status)
	}
	return t
}

// fmtDuration renders a modeled time compactly.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
	}
}

// fmtBytes renders byte counts in binary units.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// Summary reports the paper's headline findings against the sweep's
// results, one line per claim, each marked HOLDS or VIOLATED.
func Summary(results []CaseResult) string {
	byKey := make(map[string]CaseResult, len(results))
	for _, r := range results {
		byKey[r.Key()] = r
	}
	get := func(exprName, exec string, dev ocl.DeviceType, g rtsim.Grid) (CaseResult, bool) {
		r, ok := byKey[fmt.Sprintf("%s/%s/%v/%s", exprName, exec, dev, g.Dims)]
		return r, ok
	}

	var grids []rtsim.Grid
	seen := map[string]bool{}
	for _, r := range results {
		k := r.Grid.Dims.String()
		if !seen[k] {
			seen[k] = true
			grids = append(grids, r.Grid)
		}
	}

	var b strings.Builder
	claim := func(name string, holds, applicable bool) {
		status := "HOLDS"
		if !applicable {
			status = "N/A (no applicable cases in sweep)"
		} else if !holds {
			status = "VIOLATED"
		}
		fmt.Fprintf(&b, "  [%s] %s\n", status, name)
	}

	// Claim 1: fusion <= staged <= roundtrip runtimes per case.
	ordered, cases := true, false
	// Claim 2: GPU faster or on-par with CPU for all successful GPU cases.
	gpuFaster, gpuCases := true, false
	// Claim 3: fusion is competitive with the reference kernel (within 2x).
	competitive, refCases := true, false
	// Claim 4: CPU completes all test cases.
	cpuAll := true
	// Claim 5: the strategy-crossover from the discussion — some case
	// where GPU staged failed while CPU staged beat GPU roundtrip.
	crossover, crossApplicable := false, false

	for _, exprName := range []string{"VelMag", "VortMag", "Q-Crit"} {
		for _, g := range grids {
			for _, dev := range []ocl.DeviceType{ocl.CPUDevice, ocl.GPUDevice} {
				rt, ok1 := get(exprName, "roundtrip", dev, g)
				st, ok2 := get(exprName, "staged", dev, g)
				fu, ok3 := get(exprName, "fusion", dev, g)
				ref, ok4 := get(exprName, "reference", dev, g)
				if ok1 && ok2 && ok3 && !rt.Failed && !st.Failed && !fu.Failed {
					cases = true
					if !(fu.DevTime <= st.DevTime && st.DevTime <= rt.DevTime) {
						ordered = false
					}
				}
				if ok3 && ok4 && !fu.Failed && !ref.Failed {
					refCases = true
					if fu.DevTime > 2*ref.DevTime {
						competitive = false
					}
				}
				if dev == ocl.CPUDevice && ((ok1 && rt.Failed) || (ok2 && st.Failed) || (ok3 && fu.Failed)) {
					cpuAll = false
				}
			}
			for _, exec := range []string{"roundtrip", "staged", "fusion", "reference"} {
				cg, okG := get(exprName, exec, ocl.GPUDevice, g)
				cc, okC := get(exprName, exec, ocl.CPUDevice, g)
				if okG && okC && !cg.Failed && !cc.Failed {
					gpuCases = true
					if cg.DevTime > cc.DevTime {
						gpuFaster = false
					}
				}
			}
			gs, ok1 := get(exprName, "staged", ocl.GPUDevice, g)
			cs, ok2 := get(exprName, "staged", ocl.CPUDevice, g)
			gr, ok3 := get(exprName, "roundtrip", ocl.GPUDevice, g)
			if ok1 && ok2 && ok3 && gs.Failed && !cs.Failed && !gr.Failed {
				crossApplicable = true
				if cs.DevTime < gr.DevTime {
					crossover = true
				}
			}
		}
	}

	b.WriteString("Discussion claims vs sweep results:\n")
	claim("fusion <= staged <= roundtrip runtime on every successful case", ordered, cases)
	claim("GPU faster or on-par with CPU on every case the GPU completed", gpuFaster, gpuCases)
	claim("fusion within 2x of the hand-written reference kernel", competitive, refCases)
	claim("the CPU completed all test cases", cpuAll, true)
	claim("where GPU staged failed, CPU staged beat GPU roundtrip", crossover, crossApplicable)

	completed, failed := 0, 0
	for _, r := range results {
		if r.Device == ocl.GPUDevice {
			if r.Failed {
				failed++
			} else {
				completed++
			}
		}
	}
	fmt.Fprintf(&b, "GPU completed %d of %d test cases (%d failed on device memory).\n",
		completed, completed+failed, failed)
	return b.String()
}
