package codegen

import (
	"sort"
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/passes"
	"dfg/internal/vortex"
)

// renderCases compiles every paper and extension expression, the
// two-pass gradient magnitude and a merged multi-root super-network at
// one optimisation level.
func renderCases(t *testing.T, lvl passes.Level) map[string]*dataflow.Network {
	t.Helper()
	texts := map[string]string{
		"velmag":     vortex.VelMagExpr,
		"vortmag":    vortex.VortMagExpr,
		"qcrit":      vortex.QCritExpr,
		"enstrophy":  vortex.EnstrophyExpr,
		"divergence": vortex.DivergenceExpr,
		"helicity":   vortex.HelicityExpr,
		"gradmag":    vortex.GradMagExpr,
	}
	nets := make(map[string]*dataflow.Network, len(texts)+1)
	var members []*dataflow.Network
	names := make([]string, 0, len(texts))
	for name := range texts {
		names = append(names, name)
	}
	sort.Strings(names) // one member order, one merged network
	for _, name := range names {
		net, _, err := expr.CompileWithPipeline(texts[name], nil, passes.ForLevel(lvl), passes.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nets[name] = net
		members = append(members, net)
	}
	merged, err := passes.MergeNetworks(members, lvl, passes.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nets["merged"] = merged.Net
	return nets
}

// TestRenderMatchesFuse: the text Render produces on read from a Build
// program is byte for byte what Fuse fills in, and Build leaves the
// program's and its kernel's source empty.
func TestRenderMatchesFuse(t *testing.T) {
	for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
		for name, net := range renderCases(t, lvl) {
			fused, err := Fuse(net, name)
			if err != nil {
				t.Fatalf("%s/%s: %v", lvl, name, err)
			}
			built, err := Build(net, name)
			if err != nil {
				t.Fatalf("%s/%s: %v", lvl, name, err)
			}
			if built.Source != "" || built.Kernel.Source != "" {
				t.Errorf("%s/%s: Build rendered source", lvl, name)
			}
			if got := built.Render(); got != fused.Source {
				t.Errorf("%s/%s: Render differs from Fuse's source\n--- Render ---\n%s\n--- Fuse ---\n%s", lvl, name, got, fused.Source)
			}
			if fused.Kernel.Source != fused.Source {
				t.Errorf("%s/%s: Fuse's kernel source differs from its program source", lvl, name)
			}
			if built.Kernel.Cost != fused.Kernel.Cost || built.NumPasses != fused.NumPasses {
				t.Errorf("%s/%s: Build and Fuse disagree on cost or passes", lvl, name)
			}
			if name == "gradmag" && built.NumPasses != 2 {
				t.Errorf("%s/gradmag: %d passes, want the materialization split's 2", lvl, built.NumPasses)
			}
		}
	}
}
