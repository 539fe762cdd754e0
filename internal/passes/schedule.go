package passes

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dfg/internal/dataflow"
)

// This file is the schedule stage of the pass pipeline: after the graph
// rewrites have fixed *what* the network computes, a ScheduleSpec fixes
// *how* the generated kernel iterates — work-group tiling with
// local-memory staging for the grad3d stencils, register blocking,
// float4 vectorized loads on contiguous axes, and temporal blocking that
// fuses across the stencil chains decompose-forwarding exposes.
// ComputeSchedule lowers a spec against a sealed network into a Schedule
// annotation set that internal/codegen consumes; the annotations never
// change the computed values (every scheduled kernel is bitwise
// identical to the flat one), only the emitted source shape and the cost
// model's traffic accounting.

// ScheduleSpec is the user-facing schedule choice for a fused kernel.
// The zero value is the flat schedule — the paper's single elementwise
// body — so every existing call site keeps its behaviour.
type ScheduleSpec struct {
	// TileX, TileY give the 2.5D work-group tile shape. Both zero means
	// untiled; otherwise both must be set and the stencil field inputs
	// are staged through __local memory with a one-cell halo.
	TileX, TileY int
	// Register is the register-blocking factor: each work-item carries
	// Register elements through the body. 0 and 1 both mean no blocking.
	Register int
	// Vector is the vector width for contiguous loads/stores (float4 at
	// Vector=4). 0 and 1 both mean scalar access.
	Vector int
	// Temporal requests temporal blocking: when the pass split forced by
	// a stencil-on-computed-field allows it, the producer pass is fused
	// into the consumer pass per tile (recomputing the halo) instead of
	// round-tripping the intermediate through global memory.
	Temporal bool
}

// DefaultSchedule is the tuned all-transformations schedule the "tiled"
// shorthand selects: 16x16 tiles, 2-way register blocking, float4 loads,
// temporal blocking where the network's pass structure allows it.
func DefaultSchedule() ScheduleSpec {
	return ScheduleSpec{TileX: 16, TileY: 16, Register: 2, Vector: 4, Temporal: true}
}

// IsFlat reports whether the spec requests no transformation at all.
func (s ScheduleSpec) IsFlat() bool {
	return s.TileX == 0 && s.TileY == 0 && s.Register <= 1 && s.Vector <= 1 && !s.Temporal
}

// Tiled reports whether the spec requests work-group tiling.
func (s ScheduleSpec) Tiled() bool { return s.TileX > 0 }

// Validate checks the spec's parameter ranges.
func (s ScheduleSpec) Validate() error {
	if (s.TileX == 0) != (s.TileY == 0) {
		return fmt.Errorf("passes: schedule tile shape needs both extents (got %dx%d)", s.TileX, s.TileY)
	}
	if s.TileX != 0 && (s.TileX < 4 || s.TileX > 64 || s.TileY < 4 || s.TileY > 64) {
		return fmt.Errorf("passes: schedule tile %dx%d out of range (want 4..64 per axis)", s.TileX, s.TileY)
	}
	if s.Register < 0 || s.Register > 8 {
		return fmt.Errorf("passes: schedule register blocking factor %d out of range (want 0..8)", s.Register)
	}
	switch s.Vector {
	case 0, 1, 2, 4, 8, 16:
	default:
		return fmt.Errorf("passes: schedule vector width %d invalid (want 2, 4, 8 or 16)", s.Vector)
	}
	if s.Temporal && !s.Tiled() {
		return fmt.Errorf("passes: temporal blocking requires a tile shape")
	}
	return nil
}

// String renders the spec canonically: comma-joined transformation
// terms ("tile=16x16,reg=2,vec=4,temporal"), or "flat" for the zero
// spec. The rendering round-trips through ParseScheduleSpec.
func (s ScheduleSpec) String() string {
	if s.IsFlat() {
		return "flat"
	}
	var terms []string
	if s.Tiled() {
		terms = append(terms, fmt.Sprintf("tile=%dx%d", s.TileX, s.TileY))
	}
	if s.Register > 1 {
		terms = append(terms, "reg="+strconv.Itoa(s.Register))
	}
	if s.Vector > 1 {
		terms = append(terms, "vec="+strconv.Itoa(s.Vector))
	}
	if s.Temporal {
		terms = append(terms, "temporal")
	}
	return strings.Join(terms, ",")
}

// CacheTag returns the spec's cache-key suffix. Plan-cache keys are
// NUL-joined, so the canonical comma form is safe to embed directly.
func (s ScheduleSpec) CacheTag() string { return s.String() }

// ParseScheduleSpec parses a user-facing schedule string: "" and "flat"
// give the zero spec, "tiled" gives DefaultSchedule, and otherwise a
// comma-separated term list (tile=NxM, reg=N, vec=N, temporal,
// notemporal) is folded over the zero spec. String() output parses back
// to the same spec.
func ParseScheduleSpec(text string) (ScheduleSpec, error) {
	switch text {
	case "", "flat":
		return ScheduleSpec{}, nil
	case "tiled":
		return DefaultSchedule(), nil
	}
	var s ScheduleSpec
	for _, term := range strings.Split(text, ",") {
		term = strings.TrimSpace(term)
		switch {
		case term == "tiled":
			// The default-schedule shorthand also works as a term, so
			// "tiled,notemporal" selects the default minus one knob.
			s = DefaultSchedule()
		case term == "temporal":
			s.Temporal = true
		case term == "notemporal":
			s.Temporal = false
		case strings.HasPrefix(term, "tile="):
			tx, ty, ok := strings.Cut(strings.TrimPrefix(term, "tile="), "x")
			if !ok {
				return s, fmt.Errorf("passes: schedule term %q: want tile=NxM", term)
			}
			var err error
			if s.TileX, err = strconv.Atoi(tx); err != nil {
				return s, fmt.Errorf("passes: schedule term %q: %v", term, err)
			}
			if s.TileY, err = strconv.Atoi(ty); err != nil {
				return s, fmt.Errorf("passes: schedule term %q: %v", term, err)
			}
		case strings.HasPrefix(term, "reg="):
			v, err := strconv.Atoi(strings.TrimPrefix(term, "reg="))
			if err != nil {
				return s, fmt.Errorf("passes: schedule term %q: %v", term, err)
			}
			s.Register = v
		case strings.HasPrefix(term, "vec="):
			v, err := strconv.Atoi(strings.TrimPrefix(term, "vec="))
			if err != nil {
				return s, fmt.Errorf("passes: schedule term %q: %v", term, err)
			}
			s.Vector = v
		default:
			return s, fmt.Errorf("passes: unknown schedule term %q (want tile=NxM, reg=N, vec=N, temporal, notemporal, or the shorthands \"flat\"/\"tiled\")", term)
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// StagedField is one kernel input array staged through __local memory:
// every stencil reading Field fetches its neighbours from the Local tile
// (with halo) instead of global memory.
type StagedField struct {
	// Field is the staged array's argument name: a source name or the
	// scratch label of a materialized intermediate.
	Field string
	// Local is the __local tile array's name in the emitted source.
	Local string
	// Stencils counts the stencil nodes reading this field — each one's
	// neighbour traffic moves from global to local memory.
	Stencils int
}

// Schedule is the annotation set ComputeSchedule lowers a spec into for
// one specific network: which arrays are staged, which loads vectorize,
// and whether the network's pass split is temporally fused. codegen
// consumes it verbatim; Verify re-checks it against the network.
type Schedule struct {
	// Spec is the validated spec this schedule was lowered from.
	Spec ScheduleSpec
	// Passes is the flat generator's pass count for this network (the
	// count before any temporal fusion).
	Passes int
	// Staged lists the arrays tiling stages through local memory, in
	// kernel argument order.
	Staged []StagedField
	// VectorLoads lists the width-1 source arrays read with vloadN in a
	// fully elementwise network (empty when the network has stencils).
	VectorLoads []string
	// VectorStage marks vectorized local-memory staging copies: the
	// stencil tile stage-in runs at the spec's vector width even though
	// the stencil body itself stays scalar.
	VectorStage bool
	// Temporal marks the pass split as temporally fused: the producer
	// pass recomputes per tile (halo included) into local scratch and
	// the global round-trip of the intermediates disappears.
	Temporal bool
	// FusedScratch lists the materialized node IDs whose global scratch
	// round-trip temporal fusion eliminates, in topological order.
	FusedScratch []string
}

// scheduleScratchName mirrors codegen's scratch label for a
// materialized node; the two packages agree on this spelling so the
// Schedule's Staged fields name real kernel arguments.
func scheduleScratchName(id string) string { return "scratch_" + id }

// localName names the __local tile array staged for a kernel argument.
func localName(field string) string { return "l_" + field }

// ComputeSchedule lowers a spec against a sealed, validated network. It
// replays the fusion generator's pass assignment (stencil-on-computed
// forces a pass split and materialization; cross-pass consumption
// materializes) from the dataflow graph alone, then decides per
// transformation whether the network shape supports it:
//
//   - tiling stages every distinct stencil field input;
//   - vectorized loads apply to fully elementwise width-1 networks, and
//     degrade to vectorized staging copies on tiled stencil networks;
//   - temporal blocking applies to exactly-two-pass tiled networks, and
//     is silently dropped otherwise (the spec's other terms survive).
//
// A flat spec returns (nil, nil): the caller falls through to the flat
// generator.
func ComputeSchedule(nw *dataflow.Network, spec ScheduleSpec) (*Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.IsFlat() {
		return nil, nil
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*dataflow.Node, len(order))
	for _, n := range order {
		byID[n.ID] = n
	}

	// Replay the generator's pass assignment.
	pass := make(map[string]int, len(order))
	materialize := make(map[string]bool)
	for _, n := range order {
		p := 0
		for _, in := range n.Inputs {
			if ip := pass[in]; ip > p {
				p = ip
			}
		}
		if n.Info().Class == dataflow.ClassStencil {
			field := byID[n.Inputs[0]]
			if field.Filter != "source" {
				materialize[field.ID] = true
				if fp := pass[field.ID]; fp+1 > p {
					p = fp + 1
				}
			}
		}
		pass[n.ID] = p
	}
	for _, n := range order {
		for _, in := range n.Inputs {
			src := byID[in]
			if src.Filter == "source" || src.Filter == "const" {
				continue
			}
			if pass[in] < pass[n.ID] {
				materialize[in] = true
			}
		}
	}
	numPasses := 0
	roots := nw.Roots()
	for _, r := range roots {
		if p := pass[r] + 1; p > numPasses {
			numPasses = p
		}
	}
	for _, r := range roots {
		n := byID[r]
		if n.Filter == "source" || n.Filter == "const" {
			continue
		}
		if pass[r] < numPasses-1 {
			materialize[r] = true
		}
	}

	sched := &Schedule{Spec: spec, Passes: numPasses}

	// Tiling: stage each distinct stencil field input through local
	// memory, in first-stencil order.
	if spec.Tiled() {
		idx := make(map[string]int)
		for _, n := range order {
			if n.Info().Class != dataflow.ClassStencil {
				continue
			}
			field := byID[n.Inputs[0]]
			name := field.ID
			if field.Filter != "source" {
				name = scheduleScratchName(field.ID)
			}
			if i, ok := idx[name]; ok {
				sched.Staged[i].Stencils++
				continue
			}
			idx[name] = len(sched.Staged)
			sched.Staged = append(sched.Staged, StagedField{Field: name, Local: localName(name), Stencils: 1})
		}
	}

	// Vectorization: whole-kernel vector loads need every node to be a
	// width-1 elementwise primitive from the vectorizable set; stencil
	// networks instead vectorize the staging copies when tiled.
	if spec.Vector > 1 {
		if fields := vectorizableSources(order); fields != nil {
			sched.VectorLoads = fields
		} else if spec.Tiled() && len(sched.Staged) > 0 {
			sched.VectorStage = true
		}
	}

	// Temporal blocking fuses exactly one pass split: the producer pass
	// re-runs per tile over the halo and the intermediates live in local
	// scratch. Deeper pipelines (3+ passes) would compound the halo
	// recompute quadratically, so the transformation declines them.
	if spec.Temporal && spec.Tiled() && numPasses == 2 {
		sched.Temporal = true
		for _, n := range order {
			if materialize[n.ID] {
				sched.FusedScratch = append(sched.FusedScratch, n.ID)
			}
		}
	}

	return sched, nil
}

// vectorizable lists the elementwise primitives whose vloadN form is
// emitted lane-exact: plain arithmetic and the libm calls OpenCL defines
// componentwise on vector types.
var vectorizable = map[string]bool{
	"add": true, "sub": true, "mul": true, "div": true,
	"min": true, "max": true, "sqrt": true, "neg": true, "abs": true,
	"exp": true, "log": true, "sin": true, "cos": true, "pow": true,
}

// vectorizableSources returns the live width-1 source names (in topo
// first-use order) when every computing node in the network is a
// vectorizable width-1 elementwise primitive, and nil otherwise.
func vectorizableSources(order []*dataflow.Node) []string {
	var fields []string
	for _, n := range order {
		switch n.Filter {
		case "source":
			if n.Width != 1 {
				return nil
			}
			fields = append(fields, n.ID)
		case "const":
		default:
			if !vectorizable[n.Filter] || n.Width != 1 {
				return nil
			}
		}
	}
	if len(fields) == 0 {
		return nil
	}
	return fields
}

// Verify checks a Schedule against the network it was computed for; the
// pipeline's debug/verify mode runs it after every lowering, and codegen
// runs it before consuming the annotations.
func (s *Schedule) Verify(nw *dataflow.Network) error {
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	if s.Spec.IsFlat() {
		return fmt.Errorf("passes: schedule verify: flat spec carries no annotations")
	}
	if s.Passes < 1 {
		return fmt.Errorf("passes: schedule verify: pass count %d", s.Passes)
	}

	// Collect the stencil field argument names the network really has.
	order, err := nw.TopoOrder()
	if err != nil {
		return err
	}
	byID := make(map[string]*dataflow.Node, len(order))
	for _, n := range order {
		byID[n.ID] = n
	}
	stencilFields := make(map[string]bool)
	sources := make(map[string]bool)
	for _, n := range order {
		if n.Filter == "source" {
			sources[n.ID] = true
		}
		if n.Info().Class == dataflow.ClassStencil {
			field := byID[n.Inputs[0]]
			name := field.ID
			if field.Filter != "source" {
				name = scheduleScratchName(field.ID)
			}
			stencilFields[name] = true
		}
	}

	if len(s.Staged) > 0 && !s.Spec.Tiled() {
		return fmt.Errorf("passes: schedule verify: staged fields without a tile shape")
	}
	for _, st := range s.Staged {
		if !stencilFields[st.Field] {
			return fmt.Errorf("passes: schedule verify: staged array %q is not a stencil field input", st.Field)
		}
		if st.Local != localName(st.Field) {
			return fmt.Errorf("passes: schedule verify: staged array %q local name %q (want %q)", st.Field, st.Local, localName(st.Field))
		}
		if st.Stencils < 1 {
			return fmt.Errorf("passes: schedule verify: staged array %q serves no stencils", st.Field)
		}
	}
	if len(s.VectorLoads) > 0 {
		if s.Spec.Vector <= 1 {
			return fmt.Errorf("passes: schedule verify: vector loads without a vector width")
		}
		for _, f := range s.VectorLoads {
			if !sources[f] {
				return fmt.Errorf("passes: schedule verify: vector load of %q, which is not a source", f)
			}
		}
	}
	if s.VectorStage && (s.Spec.Vector <= 1 || len(s.Staged) == 0) {
		return fmt.Errorf("passes: schedule verify: vectorized staging without vector width and staged fields")
	}
	if s.Temporal {
		if s.Passes != 2 {
			return fmt.Errorf("passes: schedule verify: temporal fusion over %d passes (want exactly 2)", s.Passes)
		}
		if !s.Spec.Tiled() {
			return fmt.Errorf("passes: schedule verify: temporal fusion without a tile shape")
		}
		if len(s.FusedScratch) == 0 {
			return fmt.Errorf("passes: schedule verify: temporal fusion with no fused intermediates")
		}
		for _, id := range s.FusedScratch {
			n := byID[id]
			if n == nil {
				return fmt.Errorf("passes: schedule verify: fused intermediate %q is not in the network", id)
			}
			if n.Filter == "source" {
				return fmt.Errorf("passes: schedule verify: fused intermediate %q is a source", id)
			}
		}
	}
	return nil
}

// Describe renders the schedule for humans (dfg-fuse -dump-passes).
func (s *Schedule) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s (%d flat pass(es))\n", s.Spec, s.Passes)
	for _, st := range s.Staged {
		fmt.Fprintf(&b, "  stage %s -> __local %s (%d stencil(s), halo 1)\n", st.Field, st.Local, st.Stencils)
	}
	if len(s.VectorLoads) > 0 {
		fmt.Fprintf(&b, "  vload%d: %s\n", s.Spec.Vector, strings.Join(s.VectorLoads, ", "))
	}
	if s.VectorStage {
		fmt.Fprintf(&b, "  vectorized staging copies (float%d)\n", s.Spec.Vector)
	}
	if s.Temporal {
		fused := append([]string(nil), s.FusedScratch...)
		sort.Strings(fused)
		fmt.Fprintf(&b, "  temporal: pass 0 fused into pass 1 per tile; local scratch for %s\n", strings.Join(fused, ", "))
	}
	if s.Spec.Register > 1 {
		fmt.Fprintf(&b, "  register blocking x%d\n", s.Spec.Register)
	}
	return b.String()
}
