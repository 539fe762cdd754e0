package strategy

import (
	"context"
	"errors"
	"testing"

	"dfg/internal/expr"
	"dfg/internal/mesh"
	"dfg/internal/vortex"
)

// TestCanceledContextStopsMidPlan verifies every strategy observes
// Bindings.Ctx between kernel launches: an already-canceled context
// stops the run before it completes, the error is the context's, and
// the partial run leaks no device buffers.
func TestCanceledContextStopsMidPlan(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 12})
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bind.Ctx = ctx

	for _, s := range []Strategy{Roundtrip{}, Staged{}, Fusion{}, Streaming{Tiles: 4}} {
		env := cpuEnv()
		res, err := Execute(s, env, net, bind)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got (%v, %v), want context.Canceled", s.Name(), res, err)
		}
		if live := env.Context().LiveBuffers(); live != 0 {
			t.Fatalf("%s: canceled run leaked %d buffers", s.Name(), live)
		}
	}
}

// TestCancelMidExecution cancels from inside a kernel body, so per-node
// strategies stop at the next launch boundary instead of running the
// plan to completion.
func TestCancelMidExecution(t *testing.T) {
	bind, _ := qcritSetup(t, mesh.Dims{NX: 8, NY: 8, NZ: 12})
	net, err := expr.Compile(vortex.QCritExpr)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []Strategy{Roundtrip{}, Staged{}, Streaming{Tiles: 8}} {
		ctx, cancel := context.WithCancel(context.Background())
		b := bind
		b.Ctx = ctx
		env := cpuEnv()
		// Cancel as soon as the queue records its first kernel launch, so
		// the strategy is mid-plan when it next checks the context.
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-ctx.Done():
					return
				default:
				}
				if env.Queue().Profile().Kernels > 0 {
					cancel()
					return
				}
			}
		}()
		res, err := Execute(s, env, net, b)
		cancel()
		<-done
		if err == nil {
			// The run may legitimately win the race and finish; accept but
			// require a complete result.
			if len(res.Data) == 0 {
				t.Fatalf("%s: nil error but empty result", s.Name())
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", s.Name(), err)
		}
		if live := env.Context().LiveBuffers(); live != 0 {
			t.Fatalf("%s: canceled run leaked %d buffers", s.Name(), live)
		}
	}
}

// TestPlanVariantKeysDiffer pins the Variant contract: differently
// configured streaming strategies must cache under different names,
// while unconfigured strategies keep their plain names.
func TestPlanVariantKeysDiffer(t *testing.T) {
	if got := PlanCacheName(Streaming{Tiles: 8}); got != "streaming@8" {
		t.Fatalf("PlanCacheName(Streaming{8}) = %q", got)
	}
	if got := PlanCacheName(Streaming{}); got != "streaming@4" {
		t.Fatalf("PlanCacheName(Streaming{}) = %q (default tiles must normalise to 4)", got)
	}
	if got := PlanCacheName(Fusion{}); got != "fusion" {
		t.Fatalf("PlanCacheName(Fusion{}) = %q", got)
	}
	a := PlanCacheName(Streaming{Tiles: 4})
	b := PlanCacheName(Streaming{Tiles: 16})
	if a == b {
		t.Fatalf("tile variants collide: %q", a)
	}
}
