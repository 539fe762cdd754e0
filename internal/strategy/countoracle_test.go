package strategy

import (
	"testing"

	"dfg/internal/dataflow"
	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/passes"
	"dfg/internal/rtsim"
	"dfg/internal/strategy/counttest"
	"dfg/internal/vortex"
)

// checkCounts runs net once, cold, under each of the paper's strategies
// and streaming at two and three tiles, and holds the run's profile and
// peak to the count oracle. A run the strategy refuses (an unbound
// source, computed extents) has nothing to count.
func checkCounts(t *testing.T, what string, net *dataflow.Network, bind Bindings) {
	t.Helper()
	src := func(name string) []float32 {
		s, _ := bind.lookup(name)
		return s.Data
	}
	strats := []Strategy{{Kind: Roundtrip}, {Kind: Staged}, {Kind: Fusion},
		{Kind: Streaming, Tiles: 2}, {Kind: Streaming, Tiles: 3}}
	for _, s := range strats {
		name := s.Name()
		if s.Kind == Streaming {
			name = s.String()
		}
		res, err := Execute(s, cpuEnv(), net, bind)
		if err != nil {
			continue
		}
		want, err := counttest.Count(name, net, bind.N, src)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		got := counttest.Counts{
			Writes: p.Writes, Reads: p.Reads, Kernels: p.Kernels,
			WriteBytes: p.WriteBytes, ReadBytes: p.ReadBytes, Peak: res.PeakBytes,
		}
		if got != want {
			t.Fatalf("%s/%s: ran %+v, the accounting rules say %+v\n%s", what, name, got, want, net.Script())
		}
	}
}

// countBindings binds a 6 x 5 x 7 mesh — NZ splits unevenly into two
// and three streaming tiles — with every name a fuzzed program may read
// bound to u's array.
func countBindings() Bindings {
	m := mesh.MustUniform(mesh.Dims{NX: 6, NY: 5, NZ: 7}, 0.5, 0.4, 0.25)
	f := rtsim.Generate(m, rtsim.Options{Seed: 5})
	bind, err := BindMesh(m, map[string][]float32{"u": f.U, "v": f.V, "w": f.W})
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"f", "dims", "x", "y", "z"} {
		if _, ok := bind.Sources[name]; !ok {
			bind.Sources[name] = bind.Sources["u"]
		}
	}
	return bind
}

// checkCountsOf compiles a and b at both levels and checks the oracle
// on each network solo and on the two merged into one super-network,
// as the batch scheduler merges them. An empty b checks a alone.
func checkCountsOf(t *testing.T, a, b string) {
	t.Helper()
	bind := countBindings()
	for _, lvl := range []passes.Level{passes.LevelPaper, passes.LevelO2} {
		var members []*dataflow.Network
		for _, text := range []string{a, b} {
			if text == "" {
				continue
			}
			net, _, err := expr.CompileWithPipeline(text, nil, passes.ForLevel(lvl), passes.RunOptions{})
			if err != nil {
				return // not a well-formed program
			}
			checkCounts(t, lvl.String(), net, bind)
			members = append(members, net)
		}
		if len(members) < 2 {
			continue
		}
		merged, err := passes.MergeNetworks(members, lvl, passes.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, lvl.String()+" merged", merged.Net, bind)
	}
}

// countSeeds are FuzzOptLevelDifferential's and FuzzBatchDifferential's
// seed programs, plus the two-pass gradient magnitude (fusion's scratch
// array), a gradient of a gradient (streaming's two-layer halo) and an
// all-constant root (a fill kernel, no source).
var countSeeds = [][2]string{
	{"s = u*1 + 0\nr = (1+2)*s + 0*v", ""},
	{"r = 0*u", ""},
	{"t = A\nr = u", ""},
	{"grad3d(u, dims*1, x, y, z)", ""},
	{vortex.GradMagExpr, ""},
	{"g = grad3d(u, dims, x, y, z)\nh = grad3d(g[2], dims, x, y, z)\nr = h[2] + g[0]", ""},
	{"r = 2.0 + 3.0", ""},
	{"r = sqrt(u*u + v*v + w*w)", "r = u*u + v*v + w*w"},
	{"r = sqrt(u*u + v*v + w*w)", "r = sqrt(u*u + v*v + w*w) + 2.0 * w"},
	{"r = u + v", "r = u - v"},
	{"s = min(u, v)\nr = if (s >= 0) then (sqrt(s)) else (-s)", "r = min(u, v) * w"},
	{"000", "t0"},
	{"r = u + v", "t0"},
	{"r = u * v + w", "r = w + v * u"},
	{vortex.QCritExpr, vortex.GradMagExpr},
}

// TestCountOracle holds every cold one-shot run of the paper's
// strategies and streaming to the accounting rules: Table II's networks and the seed
// programs, at the Paper and O2 levels, solo and merged.
func TestCountOracle(t *testing.T) {
	for _, e := range vortex.Expressions() {
		checkCountsOf(t, e.Text, "")
	}
	for _, s := range countSeeds {
		checkCountsOf(t, s[0], s[1])
	}
}

// FuzzCountOracle is TestCountOracle over any pair of programs.
func FuzzCountOracle(f *testing.F) {
	for _, e := range vortex.Expressions() {
		f.Add(e.Text, "")
	}
	for _, s := range countSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(checkCountsOf)
}
