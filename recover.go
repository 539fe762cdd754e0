package dfg

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"dfg/internal/obs"
	"dfg/internal/ocl"
	"dfg/internal/strategy"
)

// RetryPolicy configures an engine's fault recovery (SetRecovery).
// Errors from device execution are classified (ocl.Classify) and each
// class recovers differently:
//
//   - transient faults (a flaky transfer or kernel launch) retry the
//     same plan with exponential backoff plus jitter;
//   - capacity faults (device OOM, over-large buffer) walk the
//     degradation Ladder: the arena is drained and the expression is
//     re-planned on the next-cheaper strategy, with the streaming rung
//     escalating through progressively more (smaller) tiles;
//   - device-lost faults jump straight to the ladder's "vm" rung if it
//     has one — the host bytecode VM touches the device for nothing, so
//     it completes even on a latched-lost device — and surface
//     immediately otherwise; either way the device stays lost, and the
//     serving layer's circuit breaker sees that and schedules the
//     driver-reset probe (or replaces the device);
//   - permanent faults surface immediately — recovery at the engine
//     level cannot help.
//
// The zero value is not useful; start from DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxRetries is the transient-retry budget per plan (default 3).
	MaxRetries int
	// BaseBackoff is the first retry's backoff (default 1ms); each
	// further retry doubles it up to MaxBackoff (default 50ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter is the fraction of each backoff randomized symmetrically
	// around its nominal value, to decorrelate retry storms across
	// workers (default 0.5; 0 disables jitter).
	Jitter float64
	// Seed seeds the jitter generator; engines sharing a policy value
	// should perturb it per worker for decorrelation.
	Seed int64
	// Ladder is the capacity-degradation order by strategy name
	// (default fusion, staged, roundtrip, streaming, vm). A capacity
	// fault on a strategy moves to the rung after it; a strategy not on
	// the ladder degrades to the first rung. The terminal "vm" rung is
	// also the device-lost refuge: it runs entirely on the host, so a
	// lost device jumps directly to it.
	Ladder []string
	// StreamingTiles expands the ladder's "streaming" entry into one
	// rung per tile count, in order (default 4, 16, 64, 256): each
	// capacity fault under streaming halves the per-tile working set
	// again.
	StreamingTiles []int
	// Sleep replaces time.Sleep for backoff waits (tests); nil means
	// real sleeping.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy returns the policy described on RetryPolicy.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{
		MaxRetries:     3,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Jitter:         0.5,
		Ladder:         []string{"fusion", "staged", "roundtrip", "streaming", "vm"},
		StreamingTiles: []int{4, 16, 64, 256},
	}
}

// rung is one position on the expanded degradation ladder.
type rung struct {
	label string // e.g. "staged", "streaming@16"
	strat strategy.Strategy
}

// recovery is an engine's armed recovery state. Like the engine it is
// single-goroutine.
type recovery struct {
	pol   RetryPolicy
	rungs []rung
	rng   *rand.Rand
	sleep func(time.Duration)
}

// SetRecovery arms (or, with nil, disarms) fault recovery on the
// engine. The policy value is copied; defaults fill any zero field.
// Recovery is off by default: one-shot paper harnesses keep the exact
// fail-fast semantics of the original system, while the serving layer
// arms recovery on every worker engine.
func (e *Engine) SetRecovery(p *RetryPolicy) error {
	if p == nil {
		e.rec = nil
		return nil
	}
	def := DefaultRetryPolicy()
	pol := *p
	if pol.MaxRetries <= 0 {
		pol.MaxRetries = def.MaxRetries
	}
	if pol.BaseBackoff <= 0 {
		pol.BaseBackoff = def.BaseBackoff
	}
	if pol.MaxBackoff <= 0 {
		pol.MaxBackoff = def.MaxBackoff
	}
	if pol.Jitter < 0 || pol.Jitter > 1 {
		return fmt.Errorf("dfg: retry jitter %v outside [0,1]", pol.Jitter)
	}
	if pol.Jitter == 0 {
		pol.Jitter = def.Jitter
	}
	if len(pol.Ladder) == 0 {
		pol.Ladder = def.Ladder
	}
	if len(pol.StreamingTiles) == 0 {
		pol.StreamingTiles = def.StreamingTiles
	}
	var rungs []rung
	for _, name := range pol.Ladder {
		if name == "streaming" {
			for _, t := range pol.StreamingTiles {
				if t < 1 {
					return fmt.Errorf("dfg: streaming tile count %d must be positive", t)
				}
				s := strategy.Streaming{Tiles: t}
				rungs = append(rungs, rung{label: s.PlanVariant(), strat: s})
			}
			continue
		}
		s, err := strategy.ForName(name)
		if err != nil {
			return fmt.Errorf("dfg: ladder: %w", err)
		}
		rungs = append(rungs, rung{label: name, strat: s})
	}
	if len(rungs) == 0 {
		return fmt.Errorf("dfg: degradation ladder is empty")
	}
	sleep := pol.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	e.rec = &recovery{pol: pol, rungs: rungs, rng: rand.New(rand.NewSource(pol.Seed)), sleep: sleep}
	return nil
}

// Recovering reports whether fault recovery is armed.
func (e *Engine) Recovering() bool { return e.rec != nil }

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
	d := r.pol.BaseBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= r.pol.MaxBackoff {
			break
		}
	}
	if d > r.pol.MaxBackoff {
		d = r.pol.MaxBackoff
	}
	if r.pol.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + r.pol.Jitter*(2*r.rng.Float64()-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// next finds the rung after the given label on the expanded ladder. A
// label not on the ladder (a custom strategy) degrades to the first
// rung; the last rung has nothing below it.
func (r *recovery) next(label string) (rung, bool) {
	idx := -1
	for i, ru := range r.rungs {
		if ru.label == label || strings.HasPrefix(ru.label, label+"@") {
			idx = i
			break
		}
	}
	if idx < 0 {
		if r.rungs[0].label != label {
			return r.rungs[0], true
		}
		return rung{}, false
	}
	if idx+1 >= len(r.rungs) {
		return rung{}, false
	}
	return r.rungs[idx+1], true
}

// vmRung finds the ladder's "vm" rung — the device-lost refuge.
func (r *recovery) vmRung() (rung, bool) {
	for _, ru := range r.rungs {
		if ru.label == "vm" {
			return ru, true
		}
	}
	return rung{}, false
}

// run is the recovery-wrapped execution loop around runPlanOnce. j.pr,
// when non-nil, remembers the rung a degraded run landed on, so
// subsequent warm evaluations start there instead of re-failing the
// primary plan.
func (r *recovery) run(e *Engine, j job, bind strategy.Bindings, sp *obs.Span, t0 time.Time, capt *evalCapture) (*Result, error) {
	retries := 0
	fell := false    // did this call move down the ladder at all?
	viaLost := false // was the final rung reached through a device loss?
	for {
		label := j.label
		res, err := e.runPlanOnce(j, bind, sp, t0, capt)
		if err == nil {
			if pr := j.pr; pr != nil && fell && j.plan != pr.plan {
				pr.fallback, pr.fallbackLabel, pr.fallbackLost = j.plan, label, viaLost
			}
			return res, nil
		}
		// A canceled request must not burn retries or rungs; surface the
		// error as-is (it already is, or wraps, the context's error).
		if bind.Ctx != nil && bind.Ctx.Err() != nil {
			return nil, err
		}
		switch class := ocl.Classify(err); class {
		case ocl.ClassTransient:
			if retries >= r.pol.MaxRetries {
				return nil, fmt.Errorf("dfg: %d retries exhausted: %w", retries, err)
			}
			retries++
			capt.noteRetry()
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
			var nxt rung
			var ok bool
			if lost {
				// Nothing on the device can run again until the serving layer
				// heals or replaces it, but the ladder's host-VM rung (if any)
				// needs no device at all: jump straight there. Already on it,
				// or no vm rung? Surface the loss.
				if nxt, ok = r.vmRung(); !ok || label == nxt.label {
					return nil, err
				}
			} else if nxt, ok = r.next(label); !ok {
				return nil, fmt.Errorf("dfg: degradation ladder exhausted at %s: %w", label, err)
			}
			// Drain the arena so pooled and resident buffers do not count
			// against the smaller plan's capacity; re-planning goes through
			// the shared plan cache, so a rung already planned anywhere is
			// free here.
			e.env.Context().Pool().Drain()
			fs := sp.Child("fallback")
			if fs != nil {
				fs.SetAttr("from", label).SetAttr("to", nxt.label).SetAttr("cause", err.Error())
			}
			np, _, perr := e.comp.PlanTracedAt(j.text, e.lvl, nxt.strat, e.env.Device(), fs)
			fs.Finish()
			if perr != nil {
				return nil, fmt.Errorf("dfg: fallback re-plan %s -> %s: %w", label, nxt.label, perr)
			}
			if e.reg != nil {
				e.reg.Counter("dfg_fallback_total",
					"Strategy degradations by ladder edge.",
					obs.Labels{"from": label, "to": nxt.label}).Inc()
			}
			j.plan, j.label = np, nxt.label
			capt.noteFallback(nxt.label, lost)
			fell, viaLost = true, viaLost || lost
			retries = 0

		default: // permanent
			return nil, err
		}
	}
}
