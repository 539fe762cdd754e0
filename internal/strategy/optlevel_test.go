package strategy

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/vortex"
)

// Optimisation-level differential harness: the O2 pipeline must be
// observationally identical to the Paper pipeline — same float32 bits
// element for element — under every strategy, because each O2 rewrite
// (constant folding through each primitive's one lane body, identity elimination,
// commuted CSE over bitwise-commutative ops, gradient-axis forwarding)
// preserves the exact operation sequence per element. Every element is
// compared, non-finite ones included, by sameClass: equal bits, or NaN
// on both sides.

// compileAt compiles a program at an explicit optimisation level with
// the pipeline's invariant verification on.
func compileAt(t *testing.T, text string, lvl passes.Level) *dataflow.Network {
	t.Helper()
	net, _, err := expr.CompileWithPipeline(text, nil, passes.ForLevel(lvl), passes.RunOptions{Verify: true})
	if err != nil {
		t.Fatalf("compile at %v: %v\n%s", lvl, err, text)
	}
	return net
}

// optExecutors returns the three paper strategies plus the future-work
// streaming strategy — the four execution paths O2 networks must match
// Paper networks on.
func optExecutors(t *testing.T) map[string]Strategy {
	t.Helper()
	out := map[string]Strategy{}
	for _, name := range Names() {
		s, err := ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = s
	}
	out["streaming"] = Strategy{Kind: Streaming, Tiles: 2}
	return out
}

// checkOptLevelProgram executes one program at both levels under every
// strategy and reports the first divergence.
func checkOptLevelProgram(t *testing.T, text string, bind Bindings) {
	t.Helper()
	paper := compileAt(t, text, passes.LevelPaper)
	o2 := compileAt(t, text, passes.LevelO2)
	for name, s := range optExecutors(t) {
		pres, err := Execute(s, cpuEnv(), paper, bind)
		if err != nil {
			t.Fatalf("%s at paper level: %v\n%s", name, err, text)
		}
		ores, err := Execute(s, cpuEnv(), o2, bind)
		if err != nil {
			t.Fatalf("%s at O2: %v\n%s", name, err, text)
		}
		if len(ores.Data) != len(pres.Data) || ores.Width != pres.Width {
			t.Fatalf("%s: O2 shape %dx%d vs paper %dx%d\n%s",
				name, len(ores.Data), ores.Width, len(pres.Data), pres.Width, text)
		}
		for i := range pres.Data {
			if !sameClass(pres.Data[i], ores.Data[i]) {
				t.Fatalf("%s: O2 diverges from paper at element %d: %v vs %v\nprogram:\n%s",
					name, i, pres.Data[i], ores.Data[i], text)
			}
		}
	}
}

// optLevelBindings builds the standard small-mesh bindings the
// opt-level comparisons run on.
func optLevelBindings(seed int64) Bindings {
	m := mesh.MustUniform(mesh.Dims{NX: 6, NY: 5, NZ: 4}, 0.5, 0.4, 0.25)
	f := rtsim.Generate(m, rtsim.Options{Seed: seed})
	bind, err := BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		panic(err)
	}
	return bind
}

// TestOptLevelDifferential is the property test: random programs (the
// same generator the cross-strategy harness uses, whose constants land
// on the identity values 0 and 1 often enough to exercise every O2
// rewrite) plus the three paper expressions, all strategies, zero-ULP
// agreement between levels. Seeds are drawn by testing/quick so the
// program space is resampled, not replayed, every run.
func TestOptLevelDifferential(t *testing.T) {
	bind := optLevelBindings(11)
	for _, e := range vortex.Expressions() {
		checkOptLevelProgram(t, e.Text, bind)
	}
	check := func(seed int64) bool {
		text := randProgram(rand.New(rand.NewSource(seed)), []string{"u", "v", "w"})
		checkOptLevelProgram(t, text, bind) // Fatals on divergence
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzOptLevelDifferential is the fuzz surface over program text: any
// program both pipelines accept must evaluate identically. `go test`
// runs the seed corpus (the paper expressions and an identity-heavy
// program); `go test -fuzz=OptLevel` explores further.
func FuzzOptLevelDifferential(f *testing.F) {
	for _, e := range vortex.Expressions() {
		f.Add(e.Text)
	}
	f.Add("s = u*1 + 0\nr = (1+2)*s + 0*v")
	f.Add("r = 0*u")                    // not an identity: NaN for infinite u, -0 for negative u
	f.Add("t = A\nr = u")               // O2 drops the dead statement's unbound A; Paper rejects the run
	f.Add("grad3d(u, dims*1, x, y, z)") // O2 removes the identity; Paper rejects computed extents
	f.Fuzz(func(t *testing.T, text string) {
		paper, _, err := expr.CompileWithPipeline(text, nil, passes.Paper, passes.RunOptions{Verify: true})
		if err != nil {
			t.Skip() // not a well-formed program
		}
		o2, _, err := expr.CompileWithPipeline(text, nil, passes.O2, passes.RunOptions{Verify: true})
		if err != nil {
			t.Fatalf("paper accepted but O2 rejected: %v\n%s", err, text)
		}
		bind := optLevelBindings(5)
		for _, name := range []string{"f", "dims", "x", "y", "z"} {
			if _, ok := bind.Sources[name]; !ok {
				bind.Sources[name] = bind.Sources["u"]
			}
		}
		for name, s := range optExecutors(t) {
			pres, perr := Execute(s, cpuEnv(), paper, bind)
			ores, oerr := Execute(s, cpuEnv(), o2, bind)
			if (perr != nil) != (oerr != nil) && !o2MayRunWherePaperRejects(paper, o2, bind, perr, oerr) {
				t.Fatalf("%s: paper err %v vs O2 err %v\n%s", name, perr, oerr, text)
			}
			if perr != nil {
				continue // both reject, or the one licensed mismatch
			}
			for i := range pres.Data {
				if !sameClass(pres.Data[i], ores.Data[i]) {
					t.Fatalf("%s: element %d: %v vs %v\n%s", name, i, pres.Data[i], ores.Data[i], text)
				}
			}
		}
	})
}

// o2MayRunWherePaperRejects names the two cases in which O2 may run a
// program Paper refuses. Paper keeps a dead statement's sources and O2's
// dead-node elimination drops them, so the Paper network can read an
// unbound source the O2 network no longer has (`t = A` then `r = u`:
// Paper sources [A u], O2 sources [u]). And Paper may compute a
// stencil's extents through an identity O2 removes (`dims*1`, a
// ComputedDimsError). Every other disagreement about whether Execute
// errors is a finding.
func o2MayRunWherePaperRejects(paper, o2 *dataflow.Network, bind Bindings, perr, oerr error) bool {
	if perr == nil || oerr != nil {
		return false
	}
	var computed *ComputedDimsError
	if errors.As(perr, &computed) {
		return true
	}
	for _, src := range paper.Sources() {
		if _, bound := bind.Sources[src.ID]; !bound && o2.NodeByID(src.ID) == nil {
			return true
		}
	}
	return false
}

// TestTableIIUnchangedAtPaperLevel is the reproduction guard for the
// pass pipeline: the default (Paper) compile path must keep producing
// the paper's exact Table II device-event counts, and the O2 pipeline's
// smaller counts are pinned too, so a regression in either direction —
// the reproduction drifting, or the optimiser silently losing a rewrite
// — fails loudly.
func TestTableIIUnchangedAtPaperLevel(t *testing.T) {
	paperWant := map[string]map[string][3]int{
		"VelMag":  {"roundtrip": {11, 6, 6}, "staged": {3, 1, 6}, "fusion": {3, 1, 1}},
		"VortMag": {"roundtrip": {32, 12, 12}, "staged": {7, 1, 18}, "fusion": {7, 1, 1}},
		"Q-Crit":  {"roundtrip": {123, 57, 57}, "staged": {7, 1, 67}, "fusion": {7, 1, 1}},
	}
	// O2 Q-criterion: gradient-axis forwarding replaces the 3 wide
	// grad3d kernels and 9 decomposes with 9 single-axis stencils, and
	// commuted CSE merges the symmetric strain/rotation products:
	// staged drops from 67 to 55 kernel launches. Roundtrip also
	// launches fewer kernels (54 vs 57) but uploads more, because every
	// single-axis stencil bounces all five of its inputs through the
	// host while a shared decompose source bounced only one.
	o2QCrit := map[string][3]int{
		"roundtrip": {135, 54, 54},
		"staged":    {7, 1, 55},
		"fusion":    {7, 1, 1},
	}

	m := mesh.MustUniform(mesh.Dims{NX: 8, NY: 8, NZ: 8}, 1, 1, 1)
	f := rtsim.Generate(m, rtsim.Options{Seed: 1})
	bind, err := BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		t.Fatal(err)
	}

	for _, e := range vortex.Expressions() {
		net, err := expr.Compile(e.Text) // the default path IS the Paper pipeline
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, sname := range Names() {
			s, _ := ForName(sname)
			res, err := Execute(s, cpuEnv(), net, bind)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, sname, err)
			}
			w := paperWant[e.Name][sname]
			p := res.Profile
			if p.Writes != w[0] || p.Reads != w[1] || p.Kernels != w[2] {
				t.Errorf("%s/%s at paper level: Dev-W/Dev-R/K-Exe = %d/%d/%d, Table II says %d/%d/%d",
					e.Name, sname, p.Writes, p.Reads, p.Kernels, w[0], w[1], w[2])
			}
		}
	}

	o2 := compileAt(t, vortex.QCritExpr, passes.LevelO2)
	for _, sname := range Names() {
		s, _ := ForName(sname)
		res, err := Execute(s, cpuEnv(), o2, bind)
		if err != nil {
			t.Fatalf("Q-Crit/%s at O2: %v", sname, err)
		}
		w := o2QCrit[sname]
		p := res.Profile
		if p.Writes != w[0] || p.Reads != w[1] || p.Kernels != w[2] {
			t.Errorf("Q-Crit/%s at O2: Dev-W/Dev-R/K-Exe = %d/%d/%d, want %d/%d/%d",
				sname, p.Writes, p.Reads, p.Kernels, w[0], w[1], w[2])
		}
		if sname == "staged" && p.Kernels >= 67 {
			t.Errorf("O2 staged Q-Crit launches %d kernels, must be strictly below the paper's 67", p.Kernels)
		}
	}
}
