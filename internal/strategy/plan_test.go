package strategy

import (
	"errors"
	"math"
	"sync"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/vortex"
)

// pooledEnv builds a CPU environment with its context's buffer arena
// attached — the prepared warm path the engine uses.
func pooledEnv() *ocl.Env {
	env := cpuEnv()
	env.SetPool(env.Context().Pool())
	return env
}

// sameFloats compares two slices bitwise (by value; the test data has
// no NaNs).
func sameFloats(a, b []float32) bool {
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

// TestPlanWarmPathZeroAllocations: for every strategy, a plan executed
// repeatedly on an arena-backed environment allocates device buffers
// only on the cold run — warm runs recycle everything from the pool —
// and every warm output is bitwise identical to the cold one. The
// resident-source strategies (staged, fusion, streaming) additionally
// record one host-to-device transfer per field (u, v, w) and tile warm:
// the mesh-derived sources stay device-resident.
func TestPlanWarmPathZeroAllocations(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 10, NY: 10, NZ: 12})
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sname := range ExtendedNames() {
		s, _ := ForName(sname)
		env := pooledEnv()
		plan, err := s.Plan(net, env.Device())
		if err != nil {
			t.Fatalf("%s: Plan: %v", sname, err)
		}
		if got := plan.Strategy(); got != sname {
			t.Fatalf("plan.Strategy() = %q, want %q", got, sname)
		}
		if env.Context().Peak() != 0 {
			t.Fatalf("%s: planning touched device memory", sname)
		}

		cold, err := plan.Execute(env, bind)
		if err != nil {
			t.Fatalf("%s: cold execute: %v", sname, err)
		}
		coldAllocs := allocations(pooledEnv, func(env *ocl.Env) { plan.Execute(env, bind) })
		if sname == "vm" {
			// The host VM's defining property is the inverse: even the cold
			// run allocates no device memory.
			if coldAllocs != 0 {
				t.Fatalf("vm: cold run made %d device allocations, want 0", coldAllocs)
			}
		} else if coldAllocs == 0 {
			t.Fatalf("%s: cold run allocated nothing", sname)
		}

		// A warm run that allocated would trip this latch.
		env.Context().SetFaultPlan(ocl.NewFaultPlan(0).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Effect: ocl.EffectDeviceLost}))
		for i := 0; i < 3; i++ {
			warm, err := plan.Execute(env, bind)
			if err != nil {
				t.Fatalf("%s: warm execute %d: %v", sname, i, err)
			}
			if !sameFloats(cold.Data, warm.Data) {
				t.Fatalf("%s: warm run %d diverged from cold output", sname, i)
			}
			if want := 3 * max(1, s.Tiles); sname != "roundtrip" && sname != "vm" && warm.Profile.Writes != want {
				t.Fatalf("%s: warm run %d uploaded %d buffers, want %d (the fields; the mesh's sources are resident)",
					sname, i, warm.Profile.Writes, want)
			}
		}
		if env.Context().Lost() {
			t.Fatalf("%s: warm runs allocated fresh device buffers", sname)
		}
	}
}

// TestArenaNoStaleData: recycled arena buffers must never leak one
// execution's data into the next. Evaluating input set B on an arena
// warmed by input set A must match a fresh, unpooled evaluation of B
// exactly.
func TestArenaNoStaleData(t *testing.T) {
	d := mesh.Dims{NX: 10, NY: 10, NZ: 12}
	bindA, m := qcritSetup(t, d)

	// Second input set: perturb the velocity fields.
	fieldsB := map[string][]float32{}
	for _, name := range []string{"u", "v", "w"} {
		src := bindA.Sources[name].Data
		mod := make([]float32, len(src))
		for i, v := range src {
			mod[i] = v*1.5 + 0.25
		}
		fieldsB[name] = mod
	}
	bindB, err := BindMesh(m, fieldsB)
	if err != nil {
		t.Fatal(err)
	}

	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sname := range ExtendedNames() {
		s, _ := ForName(sname)

		// Reference: fresh unpooled environment evaluates B alone.
		ref := cpuEnv()
		want, err := Execute(s, ref, net, bindB)
		if err != nil {
			t.Fatalf("%s: reference run: %v", sname, err)
		}

		// Pooled environment warmed on A, then evaluating B.
		env := pooledEnv()
		plan, err := s.Plan(net, env.Device())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Execute(env, bindA); err != nil {
			t.Fatalf("%s: warmup on A: %v", sname, err)
		}
		got, err := plan.Execute(env, bindB)
		if err != nil {
			t.Fatalf("%s: pooled run on B: %v", sname, err)
		}
		if !sameFloats(want.Data, got.Data) {
			t.Fatalf("%s: pooled evaluation of changed inputs diverged from a fresh environment (stale arena data?)", sname)
		}
	}
}

// TestMeshSourcesAreStable: bindings from BindMesh know the arrays it
// derived from the mesh as stable, so a warm run recognizes them by
// address; the caller's fields — even one bound as "x" — are not, so
// each is charged its upload every run, rewritten in place or not. A
// second mesh of the same shape uploads its derived arrays once, then
// skips them, and every run equals a fresh unpooled evaluation of the
// same bindings.
func TestMeshSourcesAreStable(t *testing.T) {
	d := mesh.Dims{NX: 10, NY: 10, NZ: 12}
	bindA, _ := qcritSetup(t, d)
	for name, src := range bindA.Sources {
		if derived := name == "dims" || name == "x" || name == "y" || name == "z"; bindA.stable(src.Data) != derived {
			t.Fatalf("source %q: stable = %v", name, !derived)
		}
		if (Bindings{N: bindA.N, Sources: bindA.Sources}).stable(src.Data) {
			t.Fatalf("source %q is stable in hand-made bindings", name)
		}
	}
	own, err := BindMesh(mesh.MustUniform(d, 1, 1, 1), map[string][]float32{"x": bindA.Sources["u"].Data})
	if err != nil || own.stable(own.Sources["x"].Data) || !own.stable(own.Sources["y"].Data) {
		t.Fatalf("a caller's array bound as x: stable = %v, err = %v", own.stable(own.Sources["x"].Data), err)
	}
	mB := mesh.MustUniform(d, 0.5, 0.25, 0.125)
	bindB, err := BindMesh(mB, map[string][]float32{"u": bindA.Sources["u"].Data, "v": bindA.Sources["v"].Data, "w": bindA.Sources["w"].Data})
	if err != nil {
		t.Fatal(err)
	}
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sname := range []string{"fusion", "staged", "streaming"} {
		s, _ := ForName(sname)
		env := pooledEnv()
		plan, err := s.Plan(net, env.Device())
		if err != nil {
			t.Fatal(err)
		}
		run := func(what string, bind Bindings, wantWrites int) {
			t.Helper()
			want, err := Execute(s, cpuEnv(), net, bind)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Execute(env, bind)
			if err != nil {
				t.Fatalf("%s: %s: %v", sname, what, err)
			}
			if !sameFloats(want.Data, got.Data) {
				t.Fatalf("%s: %s: pooled run diverged from a fresh environment", sname, what)
			}
			if got.Profile.Writes != wantWrites {
				t.Fatalf("%s: %s: %d uploads, want %d", sname, what, got.Profile.Writes, wantWrites)
			}
		}
		// Per tile: u, v and w, then x, y and z of a new mesh, and its
		// dims — except under streaming, whose tiles' dims come from the
		// extents, which are the same.
		tiles, fields, derived := max(1, s.Tiles), 3, 4
		if sname == "streaming" {
			derived = 3
		}
		run("cold", bindA, tiles*(fields+4))
		run("warm", bindA, tiles*fields)
		u := bindA.Sources["u"].Data
		u[len(u)/2] += 1
		run("a field rewritten in place", bindA, tiles*fields)
		run("warm again", bindA, tiles*fields)
		run("second mesh, same shape", bindB, tiles*(fields+derived))
		run("second mesh again", bindB, tiles*fields)
		u[len(u)/2] -= 1
	}
}

// TestStreamingTileDimsStableAcrossExtents: a plan is shared by every
// engine that prepares its text, and streaming memoizes its tiling per
// extent, so an environment's warm run binds the same tile dims arrays
// it holds — and skips them — however other environments' executions
// over other extents interleave with its own.
func TestStreamingTileDimsStableAcrossExtents(t *testing.T) {
	bindA, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 10})
	bindB, _ := qcritSetup(t, mesh.Dims{NX: 9, NY: 7, NZ: 12})
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ForName("streaming")
	plan, err := s.Plan(net, cpuEnv().Device())
	if err != nil {
		t.Fatal(err)
	}
	envA, envB := pooledEnv(), pooledEnv()
	// Per tile, u, v and w upload on every run; x, y, z and the tile's
	// dims only cold.
	const fields, derived = 3, 4
	for i := 0; i < 3; i++ {
		want := s.Tiles * fields
		if i == 0 {
			want = s.Tiles * (fields + derived)
		}
		for _, run := range []struct {
			name string
			env  *ocl.Env
			bind Bindings
		}{{"A", envA, bindA}, {"B", envB, bindB}} {
			res, err := plan.Execute(run.env, run.bind)
			if err != nil {
				t.Fatal(err)
			}
			if res.Profile.Writes != want {
				t.Fatalf("run %d of extent %s: %d uploads, want %d", i, run.name, res.Profile.Writes, want)
			}
		}
	}
}

// TestArenaDrainRestoresBaseline: pooled and resident buffers keep the
// context's live-buffer count elevated between executions (that is the
// point of the pool); Drain must return it — and the used-byte
// accounting — to zero.
func TestArenaDrainRestoresBaseline(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 8})
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sname := range ExtendedNames() {
		s, _ := ForName(sname)
		env := pooledEnv()
		plan, err := s.Plan(net, env.Device())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := plan.Execute(env, bind); err != nil {
				t.Fatalf("%s: execute %d: %v", sname, i, err)
			}
		}
		if sname == "vm" {
			// The host VM allocates no device buffers at all — its pooling
			// happens in host scratch (internal/vm), asserted by the vm
			// package's own tests and the warm-path gates.
			if live := env.Context().LiveBuffers(); live != 0 {
				t.Fatalf("vm: %d device buffers live, want 0 by construction", live)
			}
			continue
		}
		if env.Context().LiveBuffers() == 0 {
			t.Fatalf("%s: expected pooled buffers to stay live between executions", sname)
		}
		env.Pool().Drain()
		if live := env.Context().LiveBuffers(); live != 0 {
			t.Fatalf("%s: %d buffers still live after Drain", sname, live)
		}
		if used := usedBytes(env.Context()); used != 0 {
			t.Fatalf("%s: %d bytes still allocated after Drain", sname, used)
		}
	}
}

// TestPlanSharedAcrossGoroutines: a single plan is immutable and may be
// executed concurrently by many environments (the serve pool shares
// plans through the compiler cache), over meshes of different extents
// in turn, so streaming's tiling memo changes hands while other
// executions read it. Run under -race in CI.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	bindA, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 10})
	bindB, _ := qcritSetup(t, mesh.Dims{NX: 9, NY: 7, NZ: 12})
	binds := []Bindings{bindA, bindB}
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sname := range ExtendedNames() {
		s, _ := ForName(sname)
		var want [2][]float32
		for k, bind := range binds {
			res, err := Execute(s, cpuEnv(), net, bind)
			if err != nil {
				t.Fatal(err)
			}
			want[k] = res.Data
		}
		plan, err := s.Plan(net, cpuEnv().Device())
		if err != nil {
			t.Fatal(err)
		}

		const workers = 4
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				env := pooledEnv()
				for i := 0; i < 4; i++ {
					k := (w + i) % 2
					res, err := plan.Execute(env, binds[k])
					if err != nil {
						errs[w] = err
						return
					}
					if !sameFloats(want[k], res.Data) {
						errs[w] = errDiverged
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%s: worker %d: %v", sname, w, err)
			}
		}
	}
}

// errDiverged marks a concurrent execution whose output differed from
// the single-threaded reference.
var errDiverged = &divergedError{}

type divergedError struct{}

func (*divergedError) Error() string { return "concurrent execution diverged from reference output" }

// TestShortSourceIsTypedError: a bound source shorter than the work
// size must come back as a *ShortSourceError from every strategy, at a
// size the device runs inline and at one it fans out over worker
// goroutines (where an out-of-range read would be an unrecoverable
// panic), with nothing left allocated. The dims descriptor is exempt
// from the per-element rule but still needs its three entries.
func TestShortSourceIsTypedError(t *testing.T) {
	sum, err := expr.Compile("r = a + b")
	if err != nil {
		t.Fatal(err)
	}
	grad, err := expr.Compile(vortex.VortMagExpr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sname := range append(ExtendedNames(), "tiered") {
		s, err := ForName(sname)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{4096, 65536} {
			env := pooledEnv()
			bind := Bindings{N: n, Sources: map[string]Source{
				"a": {Data: make([]float32, n), Width: 1},
				"b": {Data: make([]float32, n/2), Width: 1},
			}}
			_, err := Execute(s, env, sum, bind)
			var short *ShortSourceError
			if !errors.As(err, &short) || short.Name != "b" || short.Have != n/2 || short.Need != n {
				t.Fatalf("%s n=%d: err = %v, want ShortSourceError{b, %d, %d}", sname, n, err, n/2, n)
			}
			env.Context().Pool().Drain()
			if live := env.Context().LiveBuffers(); live != 0 {
				t.Fatalf("%s n=%d: %d buffers live after the rejected run", sname, n, live)
			}
		}

		mbind, _ := qcritSetup(t, mesh.Dims{NX: 16, NY: 16, NZ: 16})
		for name, need := range map[string]int{"z": mbind.N, "dims": 3} {
			bind := Bindings{N: mbind.N, Sources: map[string]Source{}}
			for k, v := range mbind.Sources {
				bind.Sources[k] = v
			}
			bind.Sources[name] = Source{Data: mbind.Sources[name].Data[:2], Width: 1}
			_, err := Execute(s, cpuEnv(), grad, bind)
			var short *ShortSourceError
			if !errors.As(err, &short) || short.Name != name || short.Need != need {
				t.Fatalf("%s: short %s: err = %v, want ShortSourceError needing %d", sname, name, err, need)
			}
		}
	}
}

// TestBadDimsIsTypedError: a dims array that does not describe a mesh of
// exactly N cells must come back as a *DimsError from every strategy,
// whatever the dims source is called, before anything is launched. The
// stencil turns dims into row lengths and neighbour offsets unchecked:
// {0,0,0} used to divide by zero and 64^3 over 16 384 cells to index out
// of range, at N = 16 384 inside a launch chunk's goroutine where no
// caller could recover. N = 64 is the inline path.
func TestBadDimsIsTypedError(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, d := range []mesh.Dims{{NX: 32, NY: 32, NZ: 16}, {NX: 4, NY: 4, NZ: 4}} {
		good, _ := qcritSetup(t, d)
		n := good.N
		bads := [][]float32{
			{0, 0, 0, 0},
			{64, 64, 64, 0},
			{float32(n), 1, 0, 0},
			{float32(d.NX), float32(d.NY), float32(d.NZ) * 2, 0}, // twice the cells
			{float32(d.NX) / 2, float32(d.NY), float32(d.NZ), 0}, // half the cells
			{float32(d.NX) + 0.5, float32(d.NY), float32(d.NZ), 0},
			{-float32(d.NX), -float32(d.NY), float32(d.NZ), 0},
			{nan, float32(d.NY), float32(d.NZ), 0},
			{inf, float32(d.NY), float32(d.NZ), 0},
			{1e30, 1e30, 1e30, 0},
		}
		for _, dimsName := range []string{"dims", "d"} {
			net, err := expr.Compile("g = grad3d(u, " + dimsName + ", x, y, z)\nr = g[0]")
			if err != nil {
				t.Fatal(err)
			}
			bindWith := func(dims []float32) Bindings {
				b := Bindings{N: n, Sources: map[string]Source{}}
				for k, v := range good.Sources {
					b.Sources[k] = v
				}
				delete(b.Sources, "dims")
				b.Sources[dimsName] = Source{Data: dims, Width: 1}
				return b
			}
			for _, sname := range append(ExtendedNames(), "tiered") {
				s, err := ForName(sname)
				if err != nil {
					t.Fatal(err)
				}
				for _, bad := range bads {
					env := pooledEnv()
					_, err := Execute(s, env, net, bindWith(bad))
					var de *DimsError
					if !errors.As(err, &de) || de.Name != dimsName || de.N != n ||
						math.Float32bits(de.NX) != math.Float32bits(bad[0]) || de.NY != bad[1] || de.NZ != bad[2] {
						t.Fatalf("%s N=%d %s=%v: err = %v, want a DimsError carrying the bound values", sname, n, dimsName, bad, err)
					}
					env.Context().Pool().Drain()
					if live := env.Context().LiveBuffers(); live != 0 {
						t.Fatalf("%s N=%d: %d buffers live after the rejected run", sname, n, live)
					}
				}
				// The same bindings with the true extents run.
				if _, err := Execute(s, pooledEnv(), net, bindWith(good.Sources["dims"].Data)); err != nil {
					t.Fatalf("%s N=%d: true dims rejected: %v", sname, n, err)
				}
			}
		}
	}
}

// BenchmarkPlan times planning the Q-criterion under each device
// strategy: ns, bytes and allocations per plan.
func BenchmarkPlan(b *testing.B) {
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"roundtrip", "staged", "fusion", "streaming"} {
		s, _ := ForName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Plan(net, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
