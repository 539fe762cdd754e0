package serve

import (
	"sync"
	"time"
)

// breakerState is a circuit breaker's position. The numeric values are
// exported as the dfg_breaker_state gauge, so they are part of the
// metrics contract: 0 closed (healthy), 1 half-open (probing), 2 open
// (tripped, cooling down).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

// String names the state for reports and span attributes.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	}
	return "unknown"
}

// breaker is a per-worker (per-device) circuit breaker. While closed,
// jobs run normally and consecutive device-fault failures are counted;
// at breakerThreshold — or immediately on a device-lost fault — the
// breaker opens and the worker reroutes its jobs back onto the queue
// for healthy peers. After the cooldown the next job becomes a
// half-open health probe: success recloses the breaker, failure reopens
// it and counts a failed probe, and enough failed probes tell the
// worker to replace its device outright.
//
// Only the owning worker goroutine transitions the breaker; the mutex
// exists so metric scrapes and reports can read a consistent state from
// other goroutines.
type breaker struct {
	mu       sync.Mutex
	state    breakerState
	cooldown time.Duration // open -> half-open delay
	fails    int           // consecutive device-fault failures while closed
	probes   int           // consecutive failed half-open probes
	openedAt time.Time
	trips    int64 // total closed/half-open -> open transitions
}

func newBreaker(cooldown time.Duration) *breaker {
	return &breaker{cooldown: cooldown}
}

// allow reports whether the owning worker may run a job now. probe is
// true when the run is the half-open health probe after a cooldown —
// the caller heals the device before probing.
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true, true
		}
		return false, false
	case breakerHalfOpen:
		// Single-goroutine owner: at most one probe is ever in flight.
		return true, true
	}
	return true, false
}

// success records a healthy run, reclosing the breaker from any state.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probes = 0
}

// failure records a device-fault failure. trip forces the breaker open
// regardless of the consecutive-failure count (device lost). It returns
// true when this failure opened the breaker.
func (b *breaker) failure(now time.Time, trip bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		// The health probe itself failed.
		b.probes++
		b.state = breakerOpen
		b.openedAt = now
		b.trips++
		return true
	}
	b.fails++
	if trip || b.fails >= breakerThreshold {
		b.state = breakerOpen
		b.openedAt = now
		b.trips++
		b.fails = 0
		return true
	}
	return false
}

// failedProbes returns the consecutive failed half-open probes since
// the breaker last closed; the worker replaces its device when this
// reaches replaceAfterProbes.
func (b *breaker) failedProbes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probes
}

// reset returns the breaker to closed with clean counters — called
// after the worker replaces its device.
func (b *breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probes = 0
}

// State returns the current position (for the dfg_breaker_state gauge).
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns the total number of times the breaker has opened.
func (b *breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
