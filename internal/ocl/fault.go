package ocl

import (
	"fmt"
	"math/rand"
	"sync"
)

// FaultOp names an operation stream a fault rule can target. Each
// simulated device operation passes through exactly one stream, and a
// rule targeting FaultAny observes the merged stream of all of them.
type FaultOp uint8

const (
	// FaultAlloc is a device buffer allocation (Context.NewBuffer).
	FaultAlloc FaultOp = iota
	// FaultWrite is a host-to-device transfer (an upload's bind).
	FaultWrite
	// FaultRead is a device-to-host transfer (Queue.ReadBuffer).
	FaultRead
	// FaultKernel is a kernel launch (Queue.Run).
	FaultKernel
	// FaultAny matches every operation stream. It is valid only as a
	// rule target, not as an operation passed to fire.
	FaultAny

	numFaultStreams = int(FaultAny) + 1
)

// String names the operation stream.
func (op FaultOp) String() string {
	switch op {
	case FaultAlloc:
		return "alloc"
	case FaultWrite:
		return "write"
	case FaultRead:
		return "read"
	case FaultKernel:
		return "kernel"
	case FaultAny:
		return "any"
	default:
		return fmt.Sprintf("FaultOp(%d)", int(op))
	}
}

// FaultEffect is what happens when a fault rule fires.
type FaultEffect uint8

const (
	// EffectError fails the single operation with the stream's typed
	// sentinel: ErrOutOfDeviceMemory for allocations, ErrTransferFailed
	// for transfers, ErrKernelFailed for kernel launches. The device
	// stays healthy.
	EffectError FaultEffect = iota
	// EffectDeviceLost latches the whole device as lost: the triggering
	// operation and every subsequent one fail with ErrDeviceLost until
	// Context.Heal is called. Buffer releases still succeed — cleanup
	// must never fail.
	EffectDeviceLost
	// EffectPanic panics from inside the operation, simulating a driver
	// crash taking down the calling goroutine. Used to exercise worker
	// panic recovery; strategy cleanup defers still run during unwind.
	EffectPanic
)

// String names the effect.
func (e FaultEffect) String() string {
	switch e {
	case EffectError:
		return "error"
	case EffectDeviceLost:
		return "device-lost"
	case EffectPanic:
		return "panic"
	default:
		return fmt.Sprintf("FaultEffect(%d)", int(e))
	}
}

// FaultRule is one entry in a FaultPlan's schedule.
//
// A rule is deterministic when Nth >= 0: it fires on every matching
// operation whose zero-based index in the rule's stream is >= Nth,
// while the fire budget lasts. A rule with Nth < 0 is probabilistic: it
// fires on each matching operation with probability Prob, drawn from
// the plan's seeded generator.
//
// Times bounds how many times the rule may fire. Times <= 0 means the
// default: once for deterministic rules, unlimited for probabilistic
// ones.
type FaultRule struct {
	Op     FaultOp     // stream to watch; FaultAny matches all streams
	Nth    int         // deterministic trigger index (0-based); < 0 = probabilistic
	Prob   float64     // per-operation fire probability when Nth < 0
	Times  int         // fire budget; <= 0 = default (1 for Nth rules, unlimited for Prob rules)
	Effect FaultEffect // what firing does
}

type faultRule struct {
	FaultRule
	remaining int // fires left; -1 = unlimited
}

// FaultPlan is a seeded, schedule-driven fault injector attached to a
// Context with SetFaultPlan. Every device operation (allocation,
// transfer, kernel launch) consults the plan; matching rules decide
// whether the operation fails, the device is lost, or the goroutine
// panics. The same seed and rule set replay the same fault schedule,
// so chaos runs are reproducible. A FaultPlan is safe for concurrent
// use, though each injected schedule is only deterministic for a
// deterministic operation order.
type FaultPlan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []faultRule
	seen  [numFaultStreams]int64 // operations observed per stream; seen[FaultAny] is the total
}

// NewFaultPlan creates an empty fault plan whose probabilistic rules
// draw from a generator seeded with seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{rng: rand.New(rand.NewSource(seed))}
}

// Add appends a rule to the schedule and returns the plan for chaining.
func (p *FaultPlan) Add(r FaultRule) *FaultPlan {
	rem := r.Times
	if rem <= 0 {
		if r.Nth >= 0 {
			rem = 1
		} else {
			rem = -1
		}
	}
	p.mu.Lock()
	p.rules = append(p.rules, faultRule{FaultRule: r, remaining: rem})
	p.mu.Unlock()
	return p
}

// FailEvery arms an unlimited probabilistic failure: each operation on
// the stream fails with probability prob.
func (p *FaultPlan) FailEvery(op FaultOp, prob float64) *FaultPlan {
	return p.Add(FaultRule{Op: op, Nth: -1, Prob: prob})
}

// LoseDeviceEvery latches the device lost with probability prob per
// operation of any kind. The latch fires at most once (further losses
// are moot while the device is down).
func (p *FaultPlan) LoseDeviceEvery(prob float64) *FaultPlan {
	return p.Add(FaultRule{Op: FaultAny, Nth: -1, Prob: prob, Times: 1, Effect: EffectDeviceLost})
}

// fire records one operation on op's stream and reports whether a rule
// fired for it, with the effect.
func (p *FaultPlan) fire(op FaultOp) (FaultEffect, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := p.seen[op]
	anyIdx := p.seen[FaultAny]
	p.seen[op]++
	p.seen[FaultAny]++
	for i := range p.rules {
		r := &p.rules[i]
		if r.remaining == 0 {
			continue
		}
		if r.Op != FaultAny && r.Op != op {
			continue
		}
		matchIdx := idx
		if r.Op == FaultAny {
			matchIdx = anyIdx
		}
		var hit bool
		if r.Nth >= 0 {
			hit = matchIdx >= int64(r.Nth)
		} else if r.Prob > 0 {
			hit = p.rng.Float64() < r.Prob
		}
		if !hit {
			continue
		}
		if r.remaining > 0 {
			r.remaining--
		}
		return r.Effect, true
	}
	return EffectError, false
}

// faultSentinel is the default injected error for a stream.
func faultSentinel(op FaultOp) error {
	switch op {
	case FaultAlloc:
		return ErrOutOfDeviceMemory
	case FaultWrite, FaultRead:
		return ErrTransferFailed
	case FaultKernel:
		return ErrKernelFailed
	default:
		return ErrKernelFailed
	}
}
