package obs

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels names a metric series within its family. Label sets should be
// low-cardinality: the registry keeps one series alive per distinct set.
type Labels map[string]string

// Counter is a monotonically increasing int64. The nil *Counter is a
// valid no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a log-bucketed latency histogram: bucket i counts
// observations <= 1µs * 2^i, covering 1µs..~64s in 27 buckets plus an
// overflow bucket. Observation is a couple of atomic adds; quantiles are
// estimated by linear interpolation within the selected bucket (the
// standard Prometheus-style estimate, good to one bucket width).
// The nil *Histogram is a valid no-op.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64 // last slot is +Inf
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64 // largest single observation, for overflow-bucket quantiles
	// In a capped family (CappedHistogram), lastNS is when the first,
	// 17th, 33rd … observation came (Unix ns), and fwd, once the family
	// evicted the series, the "other" series its observations go to.
	capped bool
	lastNS atomic.Int64
	fwd    atomic.Pointer[Histogram]
}

const (
	histBuckets = 27
	histBaseNS  = int64(time.Microsecond)
)

// histBound returns the upper bound (inclusive) of bucket i in
// nanoseconds; the final slot is unbounded.
func histBound(i int) int64 { return histBaseNS << uint(i) }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if f := h.fwd.Load(); f != nil {
		h = f
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketFor(ns)].Add(1)
	c := h.count.Add(1)
	h.sumNS.Add(ns)
	h.raiseMax(ns)
	if h.capped && c%16 == 1 { // a clock read costs ≈ 90 ns in a VM: stamp every 16th
		h.lastNS.Store(time.Now().UnixNano())
	}
}

// raiseMax raises the largest observation to ns.
func (h *Histogram) raiseMax(ns int64) {
	for {
		max := h.maxNS.Load()
		if ns <= max || h.maxNS.CompareAndSwap(max, ns) {
			return
		}
	}
}

// merge adds from's observations to h.
func (h *Histogram) merge(from *Histogram) {
	for i := range from.buckets {
		h.buckets[i].Add(from.buckets[i].Load())
	}
	h.count.Add(from.count.Load())
	h.sumNS.Add(from.sumNS.Load())
	h.raiseMax(from.maxNS.Load())
}

// bucketFor maps a duration in ns to its bucket index.
func bucketFor(ns int64) int {
	for i := 0; i < histBuckets; i++ {
		if ns <= histBound(i) {
			return i
		}
	}
	return histBuckets
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1), e.g. 0.5, 0.9, 0.99.
// Returns 0 with no observations. Quantiles that land in the overflow
// bucket (observations above ~67s, the top bounded bucket) return the
// largest single observation seen, so tail estimates saturate at the
// true maximum rather than the bucket's lower bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = histBound(i - 1)
			}
			hi := histBound(i)
			if i == histBuckets {
				// Overflow bucket: no upper bound to interpolate
				// against, so report the largest value actually seen
				// (always >= lo when this bucket is non-empty).
				return time.Duration(h.maxNS.Load())
			}
			frac := (rank - float64(cum)) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += n
	}
	return time.Duration(histBound(histBuckets - 1))
}

// snapshotBuckets returns cumulative bucket counts (Prometheus "le"
// semantics) plus count and sum. Reads are atomic per bucket — the
// snapshot is consistent enough for exposition (scrapes race with
// observations by design).
func (h *Histogram) snapshotBuckets() (cum []int64, count int64, sumNS int64) {
	cum = make([]int64, histBuckets+1)
	var c int64
	for i := 0; i <= histBuckets; i++ {
		c += h.buckets[i].Load()
		cum[i] = c
	}
	return cum, h.count.Load(), h.sumNS.Load()
}

// metricKind discriminates the series types a family can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one (name, labels) instance.
type series struct {
	labels string // rendered {k="v",...} signature, possibly ""
	lbl    Labels // the labels themselves, kept in a capped family
	ctr    *Counter
	hist   *Histogram
	fn     func() float64
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
	order  []string // label signatures in creation order
	// values maps each value of a capped family's label to its series
	// (CappedHistogram).
	values map[string][]*series
}

// Registry holds metric families and hands out series, memoized by
// (name, labels): asking twice returns the same instance, so callers may
// resolve series on the hot path or cache them, whichever is cheaper.
// All methods are safe for concurrent use. The nil *Registry is a valid
// no-op: every constructor returns the nil series of the right type.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in creation order
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSignature renders labels sorted by key: `{a="x",b="y"}` or "".
func labelSignature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the series for (name, labels) of a kind and
// installs fn while r.mu is held: exposition snapshots series
// (callbacks included) under the lock. Registering the same name with a
// different kind panics: that is a programming error, not a runtime
// condition.
func (r *Registry) lookup(name, help string, kind metricKind, labels Labels, fn func() float64) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(name, help, kind, labels, fn)
}

// lookupLocked is lookup with r.mu held.
func (r *Registry) lookupLocked(name, help string, kind metricKind, labels Labels, fn func() float64) *series {
	sig := labelSignature(labels)
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
			name, kind.promType(), f.kind.promType()))
	}
	s := f.series[sig]
	if s == nil {
		s = &series{labels: sig}
		switch kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindHistogram:
			s.hist = &Histogram{}
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	s.fn = fn // nil for the kinds that hold their own state
	return s
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels, nil).ctr
}

// Histogram returns the latency-histogram series for (name, labels).
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels, nil).hist
}

// other is the value a capped label records under past its cap.
const other = "other"

// CappedHistogram is Histogram for a family whose label key takes at
// most limit distinct values besides "other": a new value past the cap
// evicts the value observed longest ago (as of every 16th observation), whose series leave the family
// and fold into their "other" twins, as does anything recorded through
// them later (an observation racing the eviction may be lost). So a
// family stays bounded however many values stream through it.
func (r *Registry) CappedHistogram(name, help string, labels Labels, key string, limit int) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(name, help, kindHistogram, labels, nil)
	if s.lbl != nil {
		return s.hist
	}
	s.lbl, s.hist.capped = labels, true
	f := r.families[name]
	if f.values == nil {
		f.values = make(map[string][]*series)
	}
	v := labels[key]
	f.values[v] = append(f.values[v], s)
	own := len(f.values)
	if _, ok := f.values[other]; ok {
		own--
	}
	if v == other || own <= limit {
		return s.hist
	}
	oldest, at := "", int64(math.MaxInt64)
	for u, ss := range f.values {
		if u == v || u == other {
			continue
		}
		last := int64(0)
		for _, x := range ss {
			last = max(last, x.hist.lastNS.Load())
		}
		if last < at {
			oldest, at = u, last
		}
	}
	for _, x := range f.values[oldest] {
		ol := maps.Clone(x.lbl)
		ol[key] = other
		o := r.lookupLocked(name, help, kindHistogram, ol, nil)
		if o.lbl == nil {
			o.lbl = ol
			f.values[other] = append(f.values[other], o)
		}
		x.hist.fwd.Store(o.hist)
		o.hist.merge(x.hist)
		delete(f.series, x.labels)
		f.order = slices.DeleteFunc(f.order, func(sig string) bool { return sig == x.labels })
	}
	delete(f.values, oldest)
	return s.hist
}

// CounterFunc registers a callback-backed counter — for counters whose
// source of truth already lives elsewhere (pool atomics, compiler
// stats). fn is called at exposition time and must be concurrency-safe
// and monotone.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	if r != nil {
		r.lookup(name, help, kindCounterFunc, labels, fn)
	}
}

// GaugeFunc registers a callback-backed gauge, evaluated at exposition
// time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r != nil {
		r.lookup(name, help, kindGaugeFunc, labels, fn)
	}
}
