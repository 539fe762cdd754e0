package serve

import "time"

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

// breakerEvent is what a worker tells its breaker.
type breakerEvent int

const (
	evAllow   breakerEvent = iota // a job asks to run at now
	evSuccess                     // an evaluation the device answered
	evFailure                     // a transient or unexplained device fault
	evLost                        // the device is lost
	evReset                       // the device was replaced
)

// breaker is a per-worker (per-device) circuit breaker, as a value: on
// is its whole behaviour, and only the owning worker holds one. The pool
// publishes each new value for scrapes (Pool.note); nothing inside
// locks, sleeps or waits.
type breaker struct {
	state    breakerState
	fails    int // consecutive device faults while closed
	probes   int // consecutive failed half-open probes
	openedAt time.Time
	trips    int64 // closed/half-open -> open transitions
}

// on is the transition table:
//
//	state \ event  allow              success  failure           lost  reset
//	closed         closed             closed   open at the 5th   open  closed
//	half-open      half-open          closed   open              open  closed
//	open           half-open once     open     open              open  closed
//	               the cooldown passed
//
// In open only the cooldown moves it — an outcome that lands after the
// trip says nothing new about the device — and reset, which is a new
// device. A failed probe counts toward replaceAfterProbes; every move
// into open counts a trip and restarts the cooldown.
func (b breaker) on(ev breakerEvent, now time.Time, cooldown time.Duration) breaker {
	switch {
	case ev == evReset:
		return breaker{trips: b.trips}
	case b.state == breakerOpen:
		if ev == evAllow && now.Sub(b.openedAt) >= cooldown {
			b.state = breakerHalfOpen
		}
	case ev == evAllow:
	case ev == evSuccess:
		b.state, b.fails, b.probes = breakerClosed, 0, 0
	case b.state == breakerHalfOpen: // the probe failed
		b.probes++
		b.state, b.openedAt, b.trips = breakerOpen, now, b.trips+1
	default: // closed, a device fault
		b.fails++
		if ev == evLost || b.fails >= breakerThreshold {
			b.state, b.openedAt, b.trips, b.fails = breakerOpen, now, b.trips+1, 0
		}
	}
	return b
}

// packed is the breaker's state and trip count in one word, which is
// how the pool publishes it to scrapes; unpack reverses it.
func (b breaker) packed() int64 { return b.trips<<2 | int64(b.state) }

func unpack(w int64) (breakerState, int64) { return breakerState(w & 3), w >> 2 }
