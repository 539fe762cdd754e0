package strategy

import (
	"fmt"
	"math"
	"slices"

	"dfg/internal/codegen"
	"dfg/internal/dataflow"
	"dfg/internal/ocl"
)

// A Plan is a strategy's reusable execution plan for one sealed
// network: everything derivable from the network and device class alone
// — topological order, the kernels or fused program, and for a device
// strategy its schedule, where every release the refcount asks for is
// already placed — is computed once at planning time, so repeated
// executions pay only for binding and device work. Plans are immutable
// and safe to share across engines and goroutines; all per-call state
// (bindings, device buffers, host slots) lives in the run.
//
// The lifecycle is compile -> Plan -> Bind -> Execute: internal/compile
// caches plans keyed by (expression fingerprint, strategy, device
// class), dfg.Engine.Prepare pins one plan and binds it per call, and
// the one-shot package function Execute is exactly Plan followed by
// Plan.Execute, so the cold path runs the same code.
type Plan interface {
	// Strategy names the strategy that produced the plan.
	Strategy() string
	// Network returns the planned (sealed) network.
	Network() *dataflow.Network
	// Execute runs the plan against bound sources on an environment.
	// If the environment has a buffer arena attached (ocl.Env.SetPool)
	// the plan's buffers are drawn from the pool and sources bind to
	// resident slots (staged/fusion/streaming skip the re-upload of a
	// mesh-derived one); otherwise behavior — events, allocations, memory
	// high-water mark — is that of a one-shot run that allocates and
	// frees per call. All device buffers the plan allocates are released
	// before it returns, success or failure (with an arena attached,
	// "released" means recycled into the pool).
	Execute(env *ocl.Env, bind Bindings) (Result, error)
}

// planBase carries what every plan precomputes.
type planBase struct {
	name  string
	net   *dataflow.Network
	order []*dataflow.Node
	// needs lists the live sources in topological order with whether an
	// execution indexes them per element (problem-sized) or only reads
	// the three-entry dims header.
	needs []sourceNeed
	// dims names every source a stencil reads its mesh extents from
	// (input 1), each once. Extents are always a source: newPlanBase
	// refuses a network that computes them (ComputedDimsError).
	dims []string
	// depth is the network's stencil depth: the largest sum of stencil
	// radii along any path from a source to a root — how many cells
	// away from its own a root's value can depend on. A tile needs
	// that many halo layers.
	depth int
}

type sourceNeed struct {
	name string
	perN bool
}

// ShortSourceError reports a bound source array too short for the
// requested global work size. Every strategy checks before touching the
// device: an unchecked short array would fault inside a kernel's worker
// goroutine, where no caller can recover.
type ShortSourceError struct {
	Name       string
	Have, Need int
}

func (e *ShortSourceError) Error() string {
	return fmt.Sprintf("strategy: source %q holds %d float32s, need %d", e.Name, e.Have, e.Need)
}

// DimsError reports a bound dims array that does not describe the mesh a
// stencil is indexed over: an extent that is not a finite whole number
// >= 1, or extents whose product is not the work size. The stencil
// kernels turn dims into row lengths and neighbour offsets without
// looking at it again, so — like a short source — it is checked before
// anything is launched.
type DimsError struct {
	Name       string
	NX, NY, NZ float32 // the first three values as bound
	N          int     // the work size they must multiply to
}

func (e *DimsError) Error() string {
	return fmt.Sprintf("strategy: dims source %q = {%v, %v, %v} does not describe a mesh of %d cells", e.Name, e.NX, e.NY, e.NZ, e.N)
}

// ComputedDimsError reports a stencil whose mesh extents (input 1) or
// coordinates (inputs 2–4) the network computes. Extents have to be
// known before anything is launched — beginRun checks them against the
// work size, and the lowered strategies bake the dims buffer into the
// kernel's parameter table — and the lowered stencil indexes its
// coordinate arrays as bound buffers, so every strategy refuses such a
// network at plan time.
type ComputedDimsError struct {
	Stencil string // the stencil's filter, e.g. "grad3d"
	Input   string // the filter computing the input, e.g. "add"
	coord   string // the computed coordinate, "x", "y" or "z"; "" for the extents
}

func (e *ComputedDimsError) Error() string {
	if e.coord != "" {
		return fmt.Sprintf("strategy: %s takes its %s coordinates from a computed %s; they must be a bound source", e.Stencil, e.coord, e.Input)
	}
	return fmt.Sprintf("strategy: %s takes its mesh extents from a computed %s; they must be a bound source (dims)", e.Stencil, e.Input)
}

// dimsCover reports whether the three extents are whole numbers >= 1
// whose product is n. Each extent is bounded by n before it is
// converted, and the product is checked by division, so neither a NaN,
// an infinity nor an overflow can pass.
func dimsCover(nx, ny, nz float32, n int) bool {
	rest := n
	for _, d := range [3]float32{nx, ny, nz} {
		if !(d >= 1 && d <= float32(n)) || d != float32(int(d)) || rest%int(d) != 0 {
			return false
		}
		rest /= int(d)
	}
	return rest == 1
}

// StencilDepth returns the network's stencil depth, as planning fixes
// it (planBase.depth): how many halo layers a sub-domain of the mesh
// needs for its cells to equal a whole-mesh run.
func StencilDepth(net *dataflow.Network) (int, error) {
	base, err := newPlanBase("", net)
	return base.depth, err
}

// Strategy names the planning strategy.
func (p *planBase) Strategy() string { return p.name }

// Network returns the planned network.
func (p *planBase) Network() *dataflow.Network { return p.net }

// newPlanBase validates the network and fixes its topological order —
// the planning work every strategy shares.
func newPlanBase(name string, net *dataflow.Network) (planBase, error) {
	if err := net.Validate(); err != nil {
		return planBase{}, err
	}
	order, err := net.TopoOrder()
	if err != nil {
		return planBase{}, err
	}
	// Every use of a source indexes it per element, except as a stencil's
	// dims descriptor (input 1). A stencil's inputs after its field must
	// be sources. Sources precede their consumers in order. at is
	// indexed by network position: a source's index in needs plus one
	// (0 for every other node), and the node's stencil depth. It lives
	// on the stack up to 128 nodes, so a cold plan allocates no more for
	// it.
	sources := 0 // needs is sized before it is filled: one allocation
	for _, n := range order {
		if n.Filter == "source" {
			sources++
		}
	}
	needs := make([]sourceNeed, 0, sources)
	var dims []string
	type slot struct{ need, depth int }
	var small [128]slot
	at := small[:]
	if net.Len() > len(small) {
		at = make([]slot, net.Len())
	}
	use := func(p int32) {
		if i := at[p].need; i > 0 {
			needs[i-1].perN = true
		}
	}
	depth := 0
	for _, n := range order {
		p := n.Pos()
		if n.Filter == "source" {
			needs = append(needs, sourceNeed{name: n.ID})
			at[p].need = len(needs)
		}
		info := n.Info()
		stencil := info.Class == dataflow.ClassStencil
		d := 0
		for i, q := range n.Inputs {
			if stencil && i > 0 && at[q].need == 0 {
				coord := [...]string{2: "x", 3: "y", 4: "z"}[i]
				return planBase{}, &ComputedDimsError{Stencil: n.Filter, Input: net.Nodes()[q].Filter, coord: coord}
			}
			if !stencil || i != 1 {
				use(q)
			} else if in := net.Nodes()[q].ID; !slices.Contains(dims, in) {
				dims = append(dims, in)
			}
			d = max(d, at[q].depth)
		}
		at[p].depth = d + info.Radius
		depth = max(depth, at[p].depth)
	}
	for _, r := range net.Roots() {
		use(r)
	}
	return planBase{name: name, net: net, order: order, needs: needs, dims: dims, depth: depth}, nil
}

// beginRun validates per-call preconditions — a positive work size, a
// live context, every bound source long enough, every stencil's dims
// describing a mesh of exactly N cells — and resets the environment's
// profiling state, so the Result captures exactly this run. Unbound
// sources are left to the strategy's own lookup to report.
func (p *planBase) beginRun(env *ocl.Env, bind Bindings) error {
	if bind.N <= 0 {
		return fmt.Errorf("strategy: global work size must be positive, got %d", bind.N)
	}
	if err := bind.canceled(); err != nil {
		return err
	}
	for _, sn := range p.needs {
		need := 3 // dims: nx, ny, nz
		if sn.perN {
			need = bind.N
		}
		if src, ok := bind.lookup(sn.name); ok && len(src.Data) > 0 && len(src.Data) < need {
			return &ShortSourceError{Name: sn.name, Have: len(src.Data), Need: need}
		}
	}
	for _, name := range p.dims {
		src, _ := bind.lookup(name)
		if d := src.Data; len(d) >= 3 && !dimsCover(d[0], d[1], d[2], bind.N) {
			return &DimsError{Name: name, NX: d[0], NY: d[1], NZ: d[2], N: bind.N}
		}
	}
	env.Reset()
	return nil
}

// nodeKernels returns the kernel of a computed node of nodes: one pass
// of the lowering fusion runs, computing the node alone
// (codegen.BuildNode). Nodes that lower alike — the same filter,
// component, constant bits and input widths — share one kernel.
func nodeKernels(nodes []*dataflow.Node) func(*dataflow.Node) (*ocl.Kernel, error) {
	type signature struct {
		filter string
		comp   int
		value  uint64
		widths [5]int
	}
	built := make(map[signature]*ocl.Kernel)
	return func(node *dataflow.Node) (*ocl.Kernel, error) {
		sig := signature{filter: node.Filter, comp: node.Comp, value: math.Float64bits(node.Value)}
		for i, p := range node.Inputs {
			sig.widths[i] = nodes[p].Width
		}
		if k := built[sig]; k != nil {
			return k, nil
		}
		prog, err := codegen.BuildNode(nodes, node)
		if err != nil {
			return nil, err
		}
		built[sig] = prog.Kernel
		return prog.Kernel, nil
	}
}

// need returns the index in needs of the live source name, or -1.
func (p *planBase) need(name string) int32 {
	return int32(slices.IndexFunc(p.needs, func(sn sourceNeed) bool { return sn.name == name }))
}

// Execute is the one-shot path: plan, then execute, so the Table II
// counting tests and the differential harness exercise the
// Plan/Bind/Execute pipeline on every run. The environment's profile
// and peak-memory accounting are reset at entry, so the Result captures
// exactly this run.
func Execute(s Strategy, env *ocl.Env, net *dataflow.Network, bind Bindings) (Result, error) {
	p, err := s.Plan(net, env.Device())
	if err != nil {
		return Result{}, err
	}
	return p.Execute(env, bind)
}
