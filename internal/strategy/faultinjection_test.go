package strategy

import (
	"errors"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/vortex"
)

// TestAllocFailureAtEveryPoint sweeps an injected allocation failure
// across every allocation a strategy performs during a Q-criterion run:
// wherever the device fails, the strategy must surface
// ErrOutOfDeviceMemory (never panic, never succeed spuriously) and
// release every buffer it allocated.
func TestAllocFailureAtEveryPoint(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 8})
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}

	for _, sname := range ExtendedNames() {
		s, _ := ForName(sname)

		// Count a clean run's allocations first.
		if _, err := Execute(s, cpuEnv(), net, bind); err != nil {
			t.Fatalf("%s: clean run failed: %v", sname, err)
		}
		total := allocations(cpuEnv, func(env *ocl.Env) { Execute(s, env, net, bind) })
		if sname == "vm" {
			// The host VM performs no device allocations, so there is
			// nothing to fault: an armed failure must never fire.
			if total != 0 {
				t.Fatalf("vm: run made %d device allocations, want 0", total)
			}
			env := cpuEnv()
			env.Context().SetFaultPlan(ocl.NewFaultPlan(0).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: 0}))
			if _, err := Execute(s, env, net, bind); err != nil {
				t.Fatalf("vm: run failed under armed alloc fault: %v", err)
			}
			continue
		}
		if total == 0 {
			t.Fatalf("%s: no allocations to fault", sname)
		}

		for k := 0; k < total; k++ {
			env := cpuEnv()
			env.Context().SetFaultPlan(ocl.NewFaultPlan(0).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: k}))
			_, err := Execute(s, env, net, bind)
			if !errors.Is(err, ocl.ErrOutOfDeviceMemory) {
				t.Fatalf("%s: fault at allocation %d/%d: want ErrOutOfDeviceMemory, got %v",
					sname, k, total, err)
			}
			if live := env.Context().LiveBuffers(); live != 0 {
				t.Fatalf("%s: fault at allocation %d/%d leaked %d buffers", sname, k, total, live)
			}
			if used := usedBytes(env.Context()); used != 0 {
				t.Fatalf("%s: fault at allocation %d/%d left %d bytes allocated", sname, k, total, used)
			}
		}

		// After all that, an unfaulted run still works (no poisoned state).
		env := cpuEnv()
		if _, err := Execute(s, env, net, bind); err != nil {
			t.Fatalf("%s: post-fault clean run failed: %v", sname, err)
		}
	}
}

// TestAllocFailurePooledSweep sweeps injected allocation failures
// through the prepared path — plan, bind, execute on an arena-backed
// environment — for every strategy. Planning must touch no device
// memory; wherever execution fails, the typed *ocl.AllocError must
// surface, and draining the arena must release every buffer the run
// (and the pool) held. Finally, a warm run with a fault armed on the
// very next allocation must still succeed, because warm executions
// allocate nothing.
func TestAllocFailurePooledSweep(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 8})
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}

	for _, sname := range ExtendedNames() {
		s, _ := ForName(sname)

		// Plan phase: planning is host-side only, so an armed fault must
		// not fire and no device memory may move.
		{
			env := pooledEnv()
			env.Context().SetFaultPlan(ocl.NewFaultPlan(0).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: 0}))
			if _, err := s.Plan(net, env.Device()); err != nil {
				t.Fatalf("%s: Plan failed under armed fault: %v", sname, err)
			}
			if env.Context().Peak() != 0 {
				t.Fatalf("%s: Plan allocated device memory", sname)
			}
		}

		// Count a clean pooled cold run's allocations.
		clean := pooledEnv()
		cleanPlan, err := s.Plan(net, clean.Device())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cleanPlan.Execute(clean, bind); err != nil {
			t.Fatalf("%s: clean pooled run failed: %v", sname, err)
		}
		total := allocations(pooledEnv, func(env *ocl.Env) {
			if p, err := s.Plan(net, env.Device()); err == nil {
				p.Execute(env, bind)
			}
		})
		if sname != "vm" && total == 0 {
			t.Fatalf("%s: no allocations to fault", sname)
		}
		// (For vm, total is 0 by construction: the sweep below is empty
		// and the warm phase doubles as the armed-fault-never-fires
		// check.)

		// Execute phase: sweep the fault across every cold allocation.
		for k := 0; k < total; k++ {
			env := pooledEnv()
			plan, err := s.Plan(net, env.Device())
			if err != nil {
				t.Fatal(err)
			}
			env.Context().SetFaultPlan(ocl.NewFaultPlan(0).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: k}))
			_, err = plan.Execute(env, bind)
			var ae *ocl.AllocError
			if !errors.As(err, &ae) {
				t.Fatalf("%s: pooled fault at allocation %d/%d: want *ocl.AllocError, got %v",
					sname, k, total, err)
			}
			if !errors.Is(err, ocl.ErrOutOfDeviceMemory) {
				t.Fatalf("%s: pooled fault at allocation %d/%d: error does not wrap ErrOutOfDeviceMemory: %v",
					sname, k, total, err)
			}
			// A failed pooled run may leave recycled buffers idle in the
			// arena — that is the pool working as designed — but draining
			// it must release everything.
			env.Pool().Drain()
			if live := env.Context().LiveBuffers(); live != 0 {
				t.Fatalf("%s: pooled fault at allocation %d/%d leaked %d buffers after Drain",
					sname, k, total, live)
			}
			if used := usedBytes(env.Context()); used != 0 {
				t.Fatalf("%s: pooled fault at allocation %d/%d left %d bytes after Drain",
					sname, k, total, used)
			}
		}

		// Warm phase: after a clean cold run, arm a fault on the next
		// allocation. The warm run draws everything from the arena, so
		// the fault never fires.
		clean.Context().SetFaultPlan(ocl.NewFaultPlan(0).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: 0}))
		if _, err := cleanPlan.Execute(clean, bind); err != nil {
			t.Fatalf("%s: warm run under armed fault failed (allocated fresh memory?): %v", sname, err)
		}
	}
}

// allocations counts the device allocations run makes on a fresh
// environment from newEnv: a device-lost latch armed at allocation k
// fires exactly when the run makes more than k of them.
func allocations(newEnv func() *ocl.Env, run func(*ocl.Env)) int {
	for k := 0; ; k++ {
		env := newEnv()
		env.Context().SetFaultPlan(ocl.NewFaultPlan(0).Add(ocl.FaultRule{Op: ocl.FaultAlloc, Nth: k, Effect: ocl.EffectDeviceLost}))
		run(env)
		if !env.Context().Lost() {
			return k
		}
	}
}

// usedBytes is the context's current allocation: ResetPeak lowers the
// high-water mark to it.
func usedBytes(ctx *ocl.Context) int64 {
	ctx.ResetPeak()
	return ctx.Peak()
}
