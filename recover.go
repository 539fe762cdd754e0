package dfg

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/strategy"
)

// Fault recovery (SetRecovery) classifies every device-execution
// error (ocl.Classify), and each class recovers differently:
//
//   - transient faults (a flaky transfer or kernel launch) retry the
//     same plan up to maxRetries times, with exponential backoff from
//     baseBackoff doubling up to maxBackoff, each wait jittered by
//     ±jitter of its nominal value to decorrelate retry storms across
//     workers;
//   - capacity faults (device OOM, over-large buffer) walk the
//     degradation ladder: the arena is drained and the expression is
//     re-planned on the next-cheaper strategy, with the streaming rungs
//     escalating through progressively more (smaller) tiles;
//   - device-lost faults jump straight to the ladder's terminal "vm"
//     rung — the host bytecode VM touches the device for nothing, so it
//     completes even on a latched-lost device — and the device stays
//     lost: the serving layer's circuit breaker sees that and schedules
//     the driver-reset probe (or replaces the device);
//   - permanent faults surface immediately — recovery at the engine
//     level cannot help.
const (
	maxRetries  = 3
	baseBackoff = time.Millisecond
	maxBackoff  = 50 * time.Millisecond
	jitter      = 0.5
)

// ladder is the capacity-degradation order. A capacity fault on a rung
// moves to the rung after it; a strategy not on the ladder degrades to
// the first rung. The last rung, "vm", is also the device-lost refuge.
// A rung's label is its String() ("streaming@16").
var ladder = []strategy.Strategy{
	{Kind: strategy.Fusion},
	{Kind: strategy.Staged},
	{Kind: strategy.Roundtrip},
	{Kind: strategy.Streaming, Tiles: 4},
	{Kind: strategy.Streaming, Tiles: 16},
	{Kind: strategy.Streaming, Tiles: 64},
	{Kind: strategy.Streaming, Tiles: 256},
	{Kind: strategy.VM},
}

// recovery is an engine's armed recovery state. Like the engine it is
// single-goroutine.
type recovery struct {
	rng   *rand.Rand
	sleep func(time.Duration) // time.Sleep; tests replace it
}

// SetRecovery arms fault recovery on the engine, seeding its retry
// jitter; engines that share a workload should use distinct seeds.
// Recovery is off by default: one-shot paper harnesses keep the exact
// fail-fast semantics of the original system, while the serving layer
// arms recovery on every worker engine.
func (e *Engine) SetRecovery(seed int64) {
	e.rec = &recovery{rng: rand.New(rand.NewSource(seed)), sleep: time.Sleep}
}

// InjectFaults attaches a fault plan to the engine's device context —
// the chaos entry point used by dfg-serve -chaos and the recovery
// tests. A nil plan disables injection.
func (e *Engine) InjectFaults(p *ocl.FaultPlan) { e.env.Context().SetFaultPlan(p) }

// LiveBuffers returns the number of unreleased buffers on the engine's
// device, including buffers pooled or resident in the arena. Recovery
// and chaos harnesses use it to prove executions leak nothing.
func (e *Engine) LiveBuffers() int { return e.env.Context().LiveBuffers() }

// DeviceLost reports whether the engine's device is latched lost.
func (e *Engine) DeviceLost() bool { return e.env.Context().Lost() }

// Heal clears a latched device loss, simulating a driver reset. The
// serving layer's circuit breaker heals before each half-open health
// probe; a fault plan that keeps losing the device will simply re-trip
// the breaker until the worker replaces the device.
func (e *Engine) Heal() { e.env.Context().Heal() }

// backoff computes the nth (1-based) retry's jittered backoff.
func (r *recovery) backoff(attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	return time.Duration(float64(d) * (1 + jitter*(2*r.rng.Float64()-1)))
}

// nextRung finds the rung after the given strategy on the ladder. A
// strategy not on the ladder (tiered, or streaming at another tile
// count) degrades to the first rung; the last rung has nothing below it.
func nextRung(s strategy.Strategy) (strategy.Strategy, bool) {
	switch i := slices.Index(ladder, s); {
	case i < 0:
		return ladder[0], true
	case i+1 < len(ladder):
		return ladder[i+1], true
	}
	return strategy.Strategy{}, false
}

// run is the recovery-wrapped execution loop around runPlanOnce. It
// reports the route the evaluation took: its resolved tier, the retries
// it burned across rungs, and where (and whether through a device loss)
// a fallback landed it. j.pr, when non-nil, remembers the rung a
// degraded run landed on, so subsequent warm evaluations start there
// instead of re-failing the primary plan.
func (r *recovery) run(e *Engine, j job, bind strategy.Bindings, sp *obs.Span, t0 time.Time) (res *Result, rt route, err error) {
	retries := 0 // on the current rung
	for {
		label := j.label
		res, rt.resolved, err = e.runPlanOnce(j, bind, sp, t0)
		if err == nil {
			if pr := j.pr; pr != nil && rt.degraded != "" && j.plan != pr.plan {
				pr.fallback, pr.fallbackLost = job{plan: j.plan, strat: j.strat, label: j.label}, rt.lost
			}
			return res, rt, nil
		}
		// A canceled request must not burn retries or rungs; surface the
		// error as-is (it already is, or wraps, the context's error).
		if bind.Ctx != nil && bind.Ctx.Err() != nil {
			return nil, rt, err
		}
		switch class := ocl.Classify(err); class {
		case ocl.ClassTransient:
			if retries >= maxRetries {
				return nil, rt, fmt.Errorf("dfg: %d retries exhausted: %w", retries, err)
			}
			retries++
			rt.retries++
			d := r.backoff(retries)
			if rs := sp.Child("retry"); rs != nil {
				rs.SetAttr("attempt", strconv.Itoa(retries)).
					SetAttr("strategy", label).
					SetAttr("backoff", d.String()).
					SetAttr("cause", err.Error())
				rs.Finish()
			}
			if e.reg != nil {
				e.reg.Counter("dfg_retries_total",
					"Transient-fault retries by execution strategy.",
					obs.Labels{"strategy": label}).Inc()
			}
			r.sleep(d)

		case ocl.ClassCapacity, ocl.ClassDeviceLost:
			lost := class == ocl.ClassDeviceLost
			var nxt strategy.Strategy
			var ok bool
			if lost {
				// Nothing on the device can run again until the serving layer
				// heals or replaces it, but the ladder's host-VM rung needs
				// no device at all: jump straight there. Already on it?
				// Surface the loss.
				if nxt = ladder[len(ladder)-1]; j.strat == nxt {
					return nil, rt, err
				}
			} else if nxt, ok = nextRung(j.strat); !ok {
				return nil, rt, fmt.Errorf("dfg: degradation ladder exhausted at %s: %w", label, err)
			}
			to := nxt.String()
			// Drain the arena so pooled and resident buffers do not count
			// against the smaller plan's capacity; re-planning goes through
			// the shared plan cache, so a rung already planned anywhere is
			// free here.
			e.env.Context().Pool().Drain()
			fs := sp.Child("fallback")
			if fs != nil {
				fs.SetAttr("from", label).SetAttr("to", to).SetAttr("cause", err.Error())
			}
			np, _, perr := e.comp.PlanTracedAt(j.text, e.lvl, nxt, e.env.Device(), fs)
			fs.Finish()
			if perr != nil {
				return nil, rt, fmt.Errorf("dfg: fallback re-plan %s -> %s: %w", label, to, perr)
			}
			if e.reg != nil {
				e.reg.Counter("dfg_fallback_total",
					"Strategy degradations by ladder edge.",
					obs.Labels{"from": label, "to": to}).Inc()
			}
			j.plan, j.strat, j.label = np, nxt, to
			rt.degraded, rt.lost = to, rt.lost || lost
			retries = 0

		default: // permanent
			return nil, rt, err
		}
	}
}
