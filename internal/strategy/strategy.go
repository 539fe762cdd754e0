// Package strategy implements the paper's three execution strategies —
// roundtrip, staged and fusion — over a common dataflow network and the
// shared primitive library. Each strategy controls data movement and
// kernel composition differently:
//
//   - roundtrip dispatches one kernel per primitive and bounces every
//     intermediate result through host memory (most transfers, least
//     device memory);
//   - staged dispatches one kernel per primitive but keeps intermediates
//     in device global memory, reference-counting them so buffers free
//     as soon as they drain (fewest transfers, most device memory);
//   - fusion generates a single kernel for the whole network with
//     intermediates in registers (fewest kernel launches; device memory
//     equal to inputs + output, plus scratch only when a stencil
//     consumes a computed value).
//
// The strategies reproduce the paper's Table II event counts exactly;
// see the package tests.
package strategy

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dfg/internal/dataflow"
	"dfg/internal/ocl"
)

// Source is one host-provided input array (a NumPy array in the original
// system): raw float32 data with an element width.
type Source struct {
	Data  []float32
	Width int
}

// Elems returns the number of elements in the source.
func (s Source) Elems() int {
	w := s.Width
	if w < 1 {
		w = 1
	}
	return len(s.Data) / w
}

// Bindings maps the network's source names to host arrays and fixes the
// global work size (one work item per mesh cell). A binding is either
// explicit — Sources names every bound array — or by reference (Bind):
// the caller's field map, read in place, plus a mesh's derived arrays.
type Bindings struct {
	// N is the number of cells — the ND-range of every kernel.
	N int
	// Sources binds each source node name to its host array. When set,
	// it is the whole binding.
	Sources map[string]Source
	// Ctx, when non-nil, is checked between kernel launches so a
	// canceled or timed-out request stops mid-plan instead of running to
	// completion. The partial run's buffers are released as on any other
	// error path.
	Ctx context.Context
	// fields are Bind's caller arrays, one float32 per element, consulted
	// when Sources is nil and ahead of the derived arrays.
	fields map[string][]float32
	// derived is the per-mesh memo dims, x, y and z come from; nil for
	// bindings made without a mesh.
	derived *meshDerived
}

// stable reports whether data is one of the arrays BindMesh derived from
// the mesh: library-owned and never written after construction, so a
// resident upload of the same array needs no content hash. A caller's
// array bound under one of those names is not.
func (b Bindings) stable(data []float32) bool {
	d := b.derived
	if d == nil || len(data) == 0 {
		return false
	}
	p := &data[0]
	return p == &d.dims[0] || p == &d.x[0] || p == &d.y[0] || p == &d.z[0]
}

// canceled returns the binding context's error, if a context is
// attached and already done. Strategies call this between kernel
// launches.
func (b Bindings) canceled() error {
	if b.Ctx == nil {
		return nil
	}
	return b.Ctx.Err()
}

// lookup resolves a bound name: from Sources when the binding is
// explicit, else from the caller's fields, then the mesh's derived arrays.
func (b Bindings) lookup(name string) (Source, bool) {
	if b.Sources != nil {
		s, ok := b.Sources[name]
		return s, ok
	}
	if data, ok := b.fields[name]; ok {
		return Source{Data: data, Width: 1}, true
	}
	if d := b.derived; d != nil {
		switch name {
		case "dims":
			return Source{Data: d.dims, Width: 1}, true
		case "x":
			return Source{Data: d.x, Width: 1}, true
		case "y":
			return Source{Data: d.y, Width: 1}, true
		case "z":
			return Source{Data: d.z, Width: 1}, true
		}
	}
	return Source{}, false
}

// source resolves a bound source by name.
func (b Bindings) source(name string) (Source, error) {
	s, ok := b.lookup(name)
	if !ok {
		return Source{}, fmt.Errorf("strategy: no binding for source %q", name)
	}
	if len(s.Data) == 0 {
		return Source{}, fmt.Errorf("strategy: empty binding for source %q", name)
	}
	if s.Width < 1 {
		s.Width = 1
	}
	return s, nil
}

// Result is the derived field produced by an execution, along with the
// device-event profile and the global-memory high-water mark of the run.
type Result struct {
	// Data is the output array (Width components per element).
	Data  []float32
	Width int
	// Profile aggregates the run's device events (Table II counts and
	// Figure 5 modeled times).
	Profile ocl.Profile
	// PeakBytes is the device global-memory high-water mark (Figure 6).
	PeakBytes int64
	// Events is the raw event log in enqueue order; empty when the
	// environment's queue log is off (ocl.Queue.SetEventLog).
	Events []ocl.Event
	// Resolved names the strategy that actually executed when the plan
	// routes internally — the tiered plan sets it to the chosen tier
	// ("vm", "fusion", ...). Empty means the plan's own strategy ran,
	// so observers should fall back to the plan label.
	Resolved string
	// Roots holds every sink's output when the executed network is a
	// multi-root super-network (a merged batch), in the network's
	// Roots() order; Data/Width then mirror Roots[0]. Nil for ordinary
	// single-root executions.
	Roots []Field
}

// Field is one root's output array of a multi-root execution.
type Field struct {
	Data  []float32
	Width int
}

// Kind names an execution strategy. The zero Kind is Fusion, the
// paper's fastest device strategy and the default everywhere a strategy
// is left unnamed; the rest follow the degradation ladder's order.
type Kind uint8

const (
	Fusion Kind = iota
	Staged
	Roundtrip
	Streaming
	VM
	Tiered
)

// kindNames spells each Kind as ForName accepts it.
var kindNames = [...]string{
	Fusion: "fusion", Staged: "staged", Roundtrip: "roundtrip",
	Streaming: "streaming", VM: "vm", Tiered: "tiered",
}

// Strategy is one execution variant: a Kind plus the configuration its
// plans depend on, zero for the kinds that take none. ForName applies
// the defaults when it makes one, so two values that plan the same are
// ==: plan-cache, ladder and serving keys compare values, not spellings.
type Strategy struct {
	Kind      Kind
	Tiles     int // Streaming: the number of Z slabs
	Threshold int // Tiered: requests below this many cells run on the host VM
}

// Name returns the strategy's kind as the paper names it ("tiered").
func (s Strategy) Name() string { return kindNames[s.Kind] }

// String labels the variant — the kind, and the configuration of the
// kinds that take one ("streaming@16", "tiered@4096"): ladder rungs and
// perf records read it.
func (s Strategy) String() string {
	switch s.Kind {
	case Streaming:
		return "streaming@" + strconv.Itoa(s.Tiles)
	case Tiered:
		return "tiered@" + strconv.Itoa(s.Threshold)
	}
	return s.Name()
}

// Plan precomputes the variant's reusable execution plan for the
// network on the given device class (topological order, kernel sequence
// or fused program, refcount schedule): immutable and shareable, so
// repeated executions bind and run it without re-planning.
func (s Strategy) Plan(net *dataflow.Network, _ *ocl.Device) (Plan, error) {
	switch s.Kind {
	case Fusion:
		return planFusion(net)
	case Staged:
		return planStaged(net, false)
	case Roundtrip:
		return planRoundtrip(net)
	case Streaming:
		if s.Tiles >= 1 {
			return planStreaming(net, s.Tiles)
		}
	case VM:
		return planVM(net)
	case Tiered:
		if s.Threshold >= 1 {
			return planTiered(net, s.Threshold)
		}
	}
	return nil, fmt.Errorf("strategy: cannot plan kind %d with %d tiles, threshold %d", s.Kind, s.Tiles, s.Threshold)
}

// ForName returns the named strategy: the paper's "roundtrip", "staged"
// or "fusion", the future-work "streaming" (4 tiles), the host-bytecode
// "vm", or the tiered model "tiered" (optionally "tiered@N" with an
// explicit cell-count threshold; DefaultVMThreshold otherwise).
func ForName(name string) (Strategy, error) {
	if rest, ok := strings.CutPrefix(name, "tiered@"); ok {
		th, err := strconv.Atoi(rest)
		if err != nil || th < 1 {
			return Strategy{}, fmt.Errorf("strategy: bad tiered threshold in %q (want tiered@N with N >= 1)", name)
		}
		return Strategy{Kind: Tiered, Threshold: th}, nil
	}
	switch k := Kind(slices.Index(kindNames[:], name)); k { // -1 wraps to no Kind
	case Fusion, Staged, Roundtrip, VM:
		return Strategy{Kind: k}, nil
	case Streaming:
		return Strategy{Kind: k, Tiles: 4}, nil
	case Tiered:
		return Strategy{Kind: k, Threshold: DefaultVMThreshold}, nil
	}
	return Strategy{}, fmt.Errorf("strategy: unknown strategy %q (want roundtrip, staged, fusion, streaming, vm or tiered[@N])", name)
}

// Names lists the paper's three strategies in the paper's order.
func Names() []string { return []string{"roundtrip", "staged", "fusion"} }

// ExtendedNames adds the strategies this reproduction grew beyond the
// paper: the future-work streaming strategy and the host bytecode VM.
func ExtendedNames() []string { return append(Names(), "streaming", "vm") }

// finish collects the run's profile into the result.
func finish(env *ocl.Env, data []float32, width int) Result {
	return Result{
		Data:      data,
		Width:     width,
		Profile:   env.Profile(),
		PeakBytes: env.PeakBytes(),
		Events:    env.Queue().Events(),
	}
}

// releaseAll releases every buffer in the map (idempotent).
func releaseAll(bufs map[string]*ocl.Buffer) {
	for _, b := range bufs {
		if b != nil {
			b.Release()
		}
	}
}

// fanOut records every root's output (in the network's Roots() order)
// on a multi-root run's result; a single-root result carries Data alone.
func (r *Result) fanOut(outs []ocl.View) {
	if len(outs) > 1 {
		r.Roots = make([]Field, len(outs))
		for i, out := range outs {
			r.Roots[i] = Field{Data: out.Data, Width: out.Width}
		}
	}
}
