package strategy

import (
	"fmt"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/ocl"
	"dfg/internal/vortex"
)

// FuzzFaultPlanNoLeak drives every strategy through arbitrary seeded
// fault schedules and asserts the no-leak invariant: whatever faults
// fire — typed errors on any operation, injected panics mid-plan,
// whole-device loss — after the execution resolves and the arena
// drains, the context holds zero live buffers and zero used bytes.
//
// The fuzz input decodes to a FaultPlan: each 3-byte chunk becomes one
// rule (operation stream, deterministic 0-based index, effect), and the
// seed additionally arms a probabilistic any-operation rule so long
// executions keep faulting past the decoded schedule.
func FuzzFaultPlanNoLeak(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0})           // first alloc errors
	f.Add(int64(2), []byte{3, 2, 0})           // third kernel errors
	f.Add(int64(3), []byte{3, 1, 1})           // second kernel loses the device
	f.Add(int64(4), []byte{1, 0, 2})           // first write panics
	f.Add(int64(5), []byte{2, 4, 0, 0, 1, 1})  // read error + alloc device-loss
	f.Add(int64(6), []byte{4, 3, 2, 3, 0, 0})  // any-op panic + kernel error
	f.Add(int64(7), []byte{})                  // probabilistic-only schedule
	f.Add(int64(8), []byte{0, 9, 0, 0, 10, 0}) // deep alloc sweep
	f.Fuzz(func(t *testing.T, seed int64, schedule []byte) {
		bind, _ := qcritSetup(t, mesh.Dims{NX: 6, NY: 6, NZ: 8})
		net, err := expr.Compile(vortex.QCritExpr)
		if err != nil {
			t.Fatal(err)
		}
		for _, sname := range ExtendedNames() {
			s, _ := ForName(sname)
			env := pooledEnv()
			ctx := env.Context()
			// Each strategy replays the same schedule from the start: the
			// plan's per-stream counters are part of FaultPlan state, so a
			// fresh copy keeps runs independent and deterministic.
			ctx.SetFaultPlan(decodeFaultPlan(seed, schedule))

			execute := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				p, err := s.Plan(net, env.Device())
				if err != nil {
					return err
				}
				_, err = p.Execute(env, bind)
				return err
			}
			// Run a few times so warm-path reuse and resident sources are
			// also exercised under the schedule; errors (including injected
			// panics) are expected and ignored — only leaks fail the fuzz.
			for i := 0; i < 3; i++ {
				_ = execute()
				ctx.Heal() // a lost device must not mask a leak check
			}
			ctx.Pool().Drain()
			if live, used := ctx.LiveBuffers(), usedBytes(ctx); live != 0 || used != 0 {
				t.Fatalf("%s: leak under schedule seed=%d %v: %d live buffers, %d bytes used",
					sname, seed, schedule, live, used)
			}
		}
	})
}

// decodeFaultPlan turns fuzz bytes into a fault schedule: chunks of
// (op, nth, effect) plus one seeded low-probability any-operation error
// rule.
func decodeFaultPlan(seed int64, schedule []byte) *ocl.FaultPlan {
	p := ocl.NewFaultPlan(seed)
	for i := 0; i+2 < len(schedule); i += 3 {
		op := ocl.FaultOp(schedule[i] % 5) // alloc, write, read, kernel, any
		nth := int(schedule[i+1] % 24)
		effect := ocl.FaultEffect(schedule[i+2] % 3)
		p.Add(ocl.FaultRule{Op: op, Nth: nth, Effect: effect})
	}
	p.Add(ocl.FaultRule{Op: ocl.FaultAny, Nth: -1, Prob: 0.02, Times: -1})
	return p
}
