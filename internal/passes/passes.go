// Package passes is the middle-end between expression lowering and
// strategy planning: first-class, composable network optimisations over
// the dataflow IR. The expression front end builds a raw network, a
// Pipeline rewrites it, and only then is it sealed and handed to the
// planners — so every strategy and code generator consumes optimised
// networks without knowing any pass exists.
//
// Two pipelines are predefined. Paper applies exactly the paper's two
// hard-wired optimisations (constant pooling and order-sensitive CSE)
// and produces byte-identical networks to the original front end — it
// is the default everywhere a table or figure of the paper is
// reproduced. O2 layers on constant folding, algebraic identity
// simplification, commutativity-normalised CSE, decompose-forwarding of
// gradients, and dead-node elimination; its output is bit-identical to
// Paper's (any NaN for a NaN) under every execution strategy but needs
// fewer kernels.
package passes

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dfg/internal/dataflow"
	"dfg/internal/obs"
)

// Stats is what a single pass reports back to the pipeline: the IDs of
// nodes it removed and how many nodes it rewrote in place.
type Stats struct {
	// Removed lists the IDs of nodes the pass deleted, in construction
	// order.
	Removed []string
	// Rewritten counts nodes mutated in place (folded to constants,
	// forwarded to fused filters, ...).
	Rewritten int

	to []int32 // the run's position scratch (positions)
}

// Pass is one network transformation. Run mutates the (unsealed)
// network in place; it must leave construction order a valid
// topological order and every reference resolvable.
type Pass interface {
	Name() string
	Run(nw *dataflow.Network, st *Stats) error
}

// Record is the pipeline's account of one pass execution.
type Record struct {
	Pass                    string
	NodesBefore, NodesAfter int
	EdgesBefore, EdgesAfter int
	Removed                 []string
	Rewritten               int
	Duration                time.Duration
}

// Result accumulates the records of one pipeline run.
type Result struct {
	Pipeline string
	Records  []Record
}

// NodesRemoved totals the nodes eliminated across all passes.
func (r *Result) NodesRemoved() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, rec := range r.Records {
		n += len(rec.Removed)
	}
	return n
}

// Pipeline is an immutable, named sequence of passes.
type Pipeline struct {
	name   string
	passes []Pass
}

// New builds a pipeline from passes, run in the given order.
func New(name string, ps ...Pass) *Pipeline {
	return &Pipeline{name: name, passes: append([]Pass(nil), ps...)}
}

// Name returns the pipeline's name ("paper", "O2").
func (p *Pipeline) Name() string { return p.name }

// Passes returns the pass sequence (do not mutate).
func (p *Pipeline) Passes() []Pass { return p.passes }

// RunOptions tunes one pipeline run.
type RunOptions struct {
	// Parent, when non-nil, receives one "pass:<name>" child span per
	// pass, annotated with the node delta.
	Parent *obs.Span
	// Debug, when non-nil, receives a line per pass with node counts
	// and eliminated IDs (the dfg-fuse -dump-passes output).
	Debug io.Writer
	// Verify runs the invariant checks (VerifyInvariants) after every
	// pass.
	Verify bool
}

// Run optimises the network with default options.
func (p *Pipeline) Run(nw *dataflow.Network) (*Result, error) {
	return p.RunWith(nw, RunOptions{})
}

// RunWith optimises the network. The network must be unsealed and have
// its output set; the caller seals it afterwards. On error the network
// may be partially rewritten and must be discarded.
func (p *Pipeline) RunWith(nw *dataflow.Network, opt RunOptions) (*Result, error) {
	if nw.Sealed() {
		return nil, fmt.Errorf("passes: pipeline %q cannot rewrite a sealed network", p.name)
	}
	if nw.Output() == "" {
		return nil, fmt.Errorf("passes: pipeline %q needs a network with an output", p.name)
	}
	res := &Result{Pipeline: p.name, Records: make([]Record, 0, len(p.passes))}
	if opt.Debug != nil {
		fmt.Fprintf(opt.Debug, "pipeline %s: %d nodes, %d edges in\n", p.name, nw.Len(), countEdges(nw))
	}
	// The passes report through an interface call, so st escapes: one
	// Stats serves the whole run, and each pass starts from a zero one
	// but for the run's scratch: the position slice, and the room after
	// the last pass's Removed, which the next appends into.
	var st Stats
	for _, pass := range p.passes {
		nb, eb := nw.Len(), countEdges(nw)
		st = Stats{Removed: st.Removed[len(st.Removed):], to: st.to}
		var sp *obs.Span
		if opt.Parent != nil {
			sp = opt.Parent.Child("pass:" + pass.Name())
		}
		start := time.Now()
		err := pass.Run(nw, &st)
		d := time.Since(start)
		if sp != nil {
			sp.SetAttr("nodes_removed", fmt.Sprint(len(st.Removed)))
			sp.SetAttr("nodes_rewritten", fmt.Sprint(st.Rewritten))
			sp.Finish()
		}
		if err != nil {
			return res, fmt.Errorf("passes: %s/%s: %w", p.name, pass.Name(), err)
		}
		rec := Record{
			Pass:        pass.Name(),
			NodesBefore: nb, NodesAfter: nw.Len(),
			EdgesBefore: eb, EdgesAfter: countEdges(nw),
			Removed:   st.Removed[:len(st.Removed):len(st.Removed)],
			Rewritten: st.Rewritten,
			Duration:  d,
		}
		res.Records = append(res.Records, rec)
		if opt.Debug != nil {
			line := fmt.Sprintf("  pass %-18s %3d -> %3d nodes, %3d -> %3d edges, %d rewritten",
				rec.Pass, rec.NodesBefore, rec.NodesAfter, rec.EdgesBefore, rec.EdgesAfter, rec.Rewritten)
			if len(rec.Removed) > 0 {
				line += "  (removed " + strings.Join(rec.Removed, ", ") + ")"
			}
			fmt.Fprintln(opt.Debug, line)
		}
		if opt.Verify {
			if err := VerifyInvariants(nw); err != nil {
				return res, fmt.Errorf("passes: %s/%s broke network invariants: %w", p.name, pass.Name(), err)
			}
		}
	}
	if opt.Debug != nil {
		fmt.Fprintf(opt.Debug, "pipeline %s: %d nodes, %d edges out\n", p.name, nw.Len(), countEdges(nw))
	}
	return res, nil
}

// countEdges totals the input connections across all nodes.
func countEdges(nw *dataflow.Network) int {
	edges := 0
	for _, n := range nw.Nodes() {
		edges += len(n.Inputs)
	}
	return edges
}
