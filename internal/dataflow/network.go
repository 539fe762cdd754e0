package dataflow

import (
	"fmt"
	"sort"
	"strconv"
)

// Node is one module of a dataflow network: a source, a constant, or a
// filter invocation with named inputs.
type Node struct {
	// ID is the node's generic name ("t0", "t1", ...) or, for sources,
	// the host-provided array name ("u", "dims", ...).
	ID string
	// Filter names the primitive ("source", "const", "add", "grad3d", ...).
	Filter string
	// Inputs are the IDs of this node's input nodes, in argument order.
	Inputs []string
	// Value is the scalar for const nodes.
	Value float64
	// Comp is the selected component for decompose nodes.
	Comp int
	// Width is the node's output width in float32 components.
	Width int
}

// Info returns the node's filter metadata.
func (n *Node) Info() FilterInfo {
	fi, ok := Lookup(n.Filter)
	if !ok {
		panic(fmt.Sprintf("dataflow: node %q has unknown filter %q", n.ID, n.Filter))
	}
	return fi
}

// Network is a dataflow network specification: an ordered list of nodes
// with exactly one designated output. Construction is "create and
// connect": every input named when a node is added must already exist,
// so a network is acyclic by construction (Validate re-checks anyway).
//
// A network has two phases: a single-goroutine construction phase, and —
// once Seal is called — an immutable execution phase. Sealed networks are
// safe to share across goroutines and engines; the expression front end
// seals every network it compiles.
//
// Nodes and their Inputs live in fixed-size chunks the network owns, so
// building a network allocates per chunk, not per node; byID is the one
// ID -> position index, which Pos exposes to the passes.
type Network struct {
	nodes   []*Node
	byID    map[string]int32  // node ID -> position in nodes
	aliases map[string]string // user name -> node ID (assignment statements)
	output  string
	// roots, when non-empty, designates multiple sinks (a super-network
	// merged from several expressions). roots[0] is always the primary
	// output, so every single-root consumer keeps working unchanged.
	roots  []string
	nextID int
	sealed bool
	// The chunks new nodes and Inputs windows are taken from.
	slab []Node
	ins  []string
	// Seal's one Validate and TopoOrder, returned by both from then on.
	valid    error
	order    []*Node
	orderErr error
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		byID:    make(map[string]int32),
		aliases: make(map[string]string),
	}
}

// Seal freezes the network: any subsequent mutation (adding nodes,
// aliasing, changing the output, or rewriting) panics. Sealing is what
// makes a compiled network shareable — engines, strategies and the
// shared compile cache all read sealed networks concurrently without
// locking. Seal validates and orders the network once and keeps both
// answers, so Validate and TopoOrder on a sealed network are lookups;
// it must therefore run before the network is published to other
// goroutines. Sealing twice is a no-op.
func (nw *Network) Seal() {
	if nw.sealed {
		return
	}
	nw.order, nw.orderErr = nw.topoOrder()
	nw.valid = nw.checkNodes()
	if nw.valid == nil && nw.output != "" {
		nw.valid = nw.orderErr
	}
	nw.sealed = true
}

// Sealed reports whether the network has been frozen.
func (nw *Network) Sealed() bool { return nw.sealed }

// mustMutable panics if the network is sealed. Mutating a sealed network
// is a programming error (it would race with concurrent readers), not a
// recoverable condition.
func (nw *Network) mustMutable(op string) {
	if nw.sealed {
		panic("dataflow: " + op + " on a sealed network")
	}
}

// Chunk sizes: how many Nodes, and how many Inputs slots, a network
// allocates at a time.
const (
	nodeChunk  = 32
	inputChunk = 64
)

// genericIDs holds the generic names t0 … t511, built once, so minting
// an ID allocates nothing for all but the largest networks.
var genericIDs = func() (ids [512]string) {
	for i := range ids {
		ids[i] = "t" + strconv.Itoa(i)
	}
	return ids
}()

// genID mints the next generic node name, skipping any a source
// already took: a user may name an input array "t0".
func (nw *Network) genID() string {
	for {
		var id string
		if i := nw.nextID; i < len(genericIDs) {
			id = genericIDs[i]
		} else {
			id = "t" + strconv.Itoa(i)
		}
		nw.nextID++
		if _, taken := nw.byID[id]; !taken {
			return id
		}
	}
}

// add appends a node, taking its storage from the current chunk, and
// indexes its position.
func (nw *Network) add(n Node) *Node {
	if len(nw.slab) == cap(nw.slab) {
		nw.slab = make([]Node, 0, nodeChunk)
	}
	nw.slab = append(nw.slab, n)
	p := &nw.slab[len(nw.slab)-1]
	nw.byID[p.ID] = int32(len(nw.nodes))
	nw.nodes = append(nw.nodes, p)
	return p
}

// window returns a k-slot Inputs slice from the current chunk. Its
// capacity ends where it does (a full-slice expression), so appending
// to one node's Inputs reallocates instead of overrunning a neighbour.
func (nw *Network) window(k int) []string {
	if cap(nw.ins)-len(nw.ins) < k {
		nw.ins = make([]string, 0, max(inputChunk, k))
	}
	n := len(nw.ins)
	nw.ins = nw.ins[:n+k]
	return nw.ins[n : n+k : n+k]
}

// AddSource declares a named host-provided input array and returns its
// node ID (the source's own name).
func (nw *Network) AddSource(name string) (string, error) {
	nw.mustMutable("AddSource")
	if name == "" {
		return "", fmt.Errorf("dataflow: source needs a name")
	}
	if _, dup := nw.byID[name]; dup {
		return "", fmt.Errorf("dataflow: duplicate node id %q", name)
	}
	nw.add(Node{ID: name, Filter: "source", Width: 1})
	return name, nil
}

// AddConst adds a scalar constant source and returns its node ID.
func (nw *Network) AddConst(v float64) string {
	nw.mustMutable("AddConst")
	return nw.add(Node{ID: nw.genID(), Filter: "const", Value: v, Width: 1}).ID
}

// AddFilter adds a filter invocation on existing nodes and returns the
// new node's generic ID. Input names may be user aliases; they are
// resolved to node IDs.
func (nw *Network) AddFilter(filter string, inputs ...string) (string, error) {
	nw.mustMutable("AddFilter")
	fi, ok := Lookup(filter)
	if !ok {
		return "", fmt.Errorf("dataflow: unknown filter %q", filter)
	}
	if fi.Class == ClassSource || fi.Class == ClassConst {
		return "", fmt.Errorf("dataflow: use AddSource/AddConst for %q", filter)
	}
	if filter == "decompose" {
		return "", fmt.Errorf("dataflow: use AddDecompose for component selection")
	}
	if len(inputs) != fi.Arity {
		return "", fmt.Errorf("dataflow: filter %q takes %d inputs, got %d", filter, fi.Arity, len(inputs))
	}
	resolved := nw.window(len(inputs))
	for i, nm := range inputs {
		id, err := nw.resolve(nm)
		if err != nil {
			return "", fmt.Errorf("%w (input %d of %q)", err, i, filter)
		}
		resolved[i] = id
	}
	return nw.add(Node{ID: nw.genID(), Filter: filter, Inputs: resolved, Width: fi.OutWidth}).ID, nil
}

// AddDecompose adds a component selection of a vector-valued node
// (the parser's translation of the bracket syntax, e.g. du[1]).
func (nw *Network) AddDecompose(input string, comp int) (string, error) {
	nw.mustMutable("AddDecompose")
	resolved, err := nw.resolve(input)
	if err != nil {
		return "", err
	}
	in := nw.NodeByID(resolved)
	if in.Width < 2 {
		return "", fmt.Errorf("dataflow: cannot decompose scalar node %q", input)
	}
	if comp < 0 || comp >= in.Width {
		return "", fmt.Errorf("dataflow: component %d out of range for %q (width %d)", comp, input, in.Width)
	}
	ins := nw.window(1)
	ins[0] = resolved
	return nw.add(Node{ID: nw.genID(), Filter: "decompose", Inputs: ins, Comp: comp, Width: 1}).ID, nil
}

// Alias binds a user-provided name (the left side of an assignment
// statement) to a node. Re-binding an existing alias is allowed, as in
// sequential assignment semantics.
func (nw *Network) Alias(name, id string) error {
	nw.mustMutable("Alias")
	resolved, err := nw.resolve(id)
	if err != nil {
		return err
	}
	if _, isNode := nw.byID[name]; isNode {
		return fmt.Errorf("dataflow: alias %q collides with a node id", name)
	}
	nw.aliases[name] = resolved
	return nil
}

// SetOutput designates the network's sink. It resets any multi-root
// set: a network is either single-output (SetOutput) or multi-root
// (SetRoots), never an inconsistent mix.
func (nw *Network) SetOutput(name string) error {
	nw.mustMutable("SetOutput")
	resolved, err := nw.resolve(name)
	if err != nil {
		return err
	}
	nw.output = resolved
	nw.roots = nil
	return nil
}

// SetRoots designates multiple sinks at once — the super-network form a
// batch merge produces. The first root becomes the primary output, so
// Output() and every single-root code path stay meaningful. Names may be
// node IDs or aliases; duplicates are collapsed (two merged expressions
// whose outputs CSE'd into one node share a root).
func (nw *Network) SetRoots(names ...string) error {
	nw.mustMutable("SetRoots")
	if len(names) == 0 {
		return fmt.Errorf("dataflow: SetRoots needs at least one root")
	}
	resolved := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, nm := range names {
		id, err := nw.resolve(nm)
		if err != nil {
			return err
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		resolved = append(resolved, id)
	}
	nw.roots = resolved
	nw.output = resolved[0]
	return nil
}

// Roots returns the network's sinks: the explicit multi-root set when
// one was declared via SetRoots, else the single output (or nil when no
// output is set). The returned slice must not be mutated.
func (nw *Network) Roots() []string {
	if len(nw.roots) > 0 {
		return nw.roots
	}
	if nw.output == "" {
		return nil
	}
	return []string{nw.output}
}

// MultiRoot reports whether the network carries more than one sink.
func (nw *Network) MultiRoot() bool { return len(nw.roots) > 1 }

// Output returns the node ID of the designated sink ("" if unset).
func (nw *Network) Output() string { return nw.output }

// resolve maps a name (node ID or user alias) to a node ID.
func (nw *Network) resolve(name string) (string, error) {
	if _, ok := nw.byID[name]; ok {
		return name, nil
	}
	if id, ok := nw.aliases[name]; ok {
		return id, nil
	}
	return "", fmt.Errorf("dataflow: unknown node or alias %q", name)
}

// Node returns the node with the given ID or alias, or nil.
func (nw *Network) Node(name string) *Node {
	id, err := nw.resolve(name)
	if err != nil {
		return nil
	}
	return nw.NodeByID(id)
}

// NodeByID returns the node with exactly the given ID (no alias
// fallback), or nil.
func (nw *Network) NodeByID(id string) *Node {
	if i, ok := nw.byID[id]; ok {
		return nw.nodes[i]
	}
	return nil
}

// Pos returns the position of the node with exactly the given ID in
// Nodes(). It is the network's one ID -> position index: passes and
// the scheduler read positions here instead of building their own maps.
func (nw *Network) Pos(id string) (int, bool) {
	i, ok := nw.byID[id]
	return int(i), ok
}

// Nodes returns the nodes in construction order (a valid topological
// order, since inputs must exist when a node is added).
func (nw *Network) Nodes() []*Node { return nw.nodes }

// Len returns the number of nodes.
func (nw *Network) Len() int { return len(nw.nodes) }

// Sources returns the source nodes in construction order.
func (nw *Network) Sources() []*Node {
	var out []*Node
	for _, n := range nw.nodes {
		if n.Filter == "source" {
			out = append(out, n)
		}
	}
	return out
}

// Aliases returns a copy of the user-name bindings, sorted by name.
func (nw *Network) Aliases() [][2]string {
	out := make([][2]string, 0, len(nw.aliases))
	for name, id := range nw.aliases {
		out = append(out, [2]string{name, id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Consumers returns, for every node ID, how many input connections read
// it, with the network output counted as one extra consumer of the sink.
// Strategies use these counts to release intermediate device buffers as
// soon as they drain — the paper's reference-counting design.
func (nw *Network) Consumers() map[string]int {
	counts := make(map[string]int, len(nw.nodes))
	for _, n := range nw.nodes {
		for _, in := range n.Inputs {
			counts[in]++
		}
	}
	for _, r := range nw.Roots() {
		counts[r]++
	}
	return counts
}

// TopoOrder returns the live nodes (those that reach a root) in a valid
// execution order, using Kahn's algorithm over the dependency graph. The
// order is stable with respect to construction order: the ready queue
// starts with the live leaves in construction order, and each node's
// dependents are released in construction order. An error is reported
// if the output is unset or a cycle is detected (impossible through the
// builder API, but specs may be hand-built). On a sealed network it
// returns the order Seal computed, without allocating; like Roots, the
// returned slice must not be mutated.
func (nw *Network) TopoOrder() ([]*Node, error) {
	if nw.sealed {
		return nw.order, nw.orderErr
	}
	return nw.topoOrder()
}

// topoOrder runs Kahn's algorithm over node positions (read from Pos),
// int32 in-degrees and a CSR (compressed sparse row) array of each
// node's dependents, so the schedule — and everything derived from it,
// like generated kernel source — is deterministic.
func (nw *Network) topoOrder() ([]*Node, error) {
	if nw.output == "" {
		return nil, fmt.Errorf("dataflow: network has no output")
	}
	n := len(nw.nodes)
	// indeg[i] is -1 while no root reaches node i; queue is the marking
	// stack first and Kahn's ready queue after. Node j's dependents are
	// counted into start[j+2], so that after the prefix sum start[j+1]
	// is where row j begins, and filling row j advances it to where the
	// row ends: deps[start[j]:start[j+1]].
	buf := make([]int32, 3*n+2)
	indeg, queue, start := buf[:n], buf[n:n:2*n], buf[2*n:]
	for i := range indeg {
		indeg[i] = -1
	}
	reach := func(id string) (int32, bool) {
		p, ok := nw.Pos(id)
		j := int32(p)
		if ok && indeg[j] < 0 {
			indeg[j] = int32(len(nw.nodes[j].Inputs)) // every input of a live node is live
			queue = append(queue, j)
		}
		return j, ok
	}
	for _, r := range nw.Roots() {
		reach(r) // roots resolve by construction
	}
	live := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		live++
		for _, in := range nw.nodes[i].Inputs {
			j, ok := reach(in)
			if !ok {
				return nil, fmt.Errorf("dataflow: node %q: missing input %q", nw.nodes[i].ID, in)
			}
			start[j+2]++
		}
	}
	for k := 2; k < len(start); k++ {
		start[k] += start[k-1]
	}
	deps := make([]int32, start[n+1])
	for i, nd := range nw.nodes {
		if indeg[i] < 0 {
			continue
		}
		for _, in := range nd.Inputs {
			j, _ := nw.Pos(in)
			deps[start[j+1]] = int32(i)
			start[j+1]++
		}
	}

	for i := range nw.nodes {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for h := 0; h < len(queue); h++ {
		for _, d := range deps[start[queue[h]]:start[queue[h]+1]] {
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(queue) != live {
		return nil, fmt.Errorf("dataflow: cycle detected (%d of %d nodes schedulable)", len(queue), live)
	}
	order := make([]*Node, len(queue))
	for k, i := range queue {
		order[k] = nw.nodes[i]
	}
	return order, nil
}

// Validate checks structural integrity: known filters, existing inputs,
// correct arities, width agreement, and an acyclic live graph. On a
// sealed network it returns the answer Seal computed.
func (nw *Network) Validate() error {
	if nw.sealed {
		return nw.valid
	}
	if err := nw.checkNodes(); err != nil || nw.output == "" {
		return err
	}
	_, err := nw.topoOrder()
	return err
}

// checkNodes is Validate without the acyclicity check.
func (nw *Network) checkNodes() error {
	for _, n := range nw.nodes {
		fi, ok := Lookup(n.Filter)
		if !ok {
			return fmt.Errorf("dataflow: node %q: unknown filter %q", n.ID, n.Filter)
		}
		if len(n.Inputs) != fi.Arity {
			return fmt.Errorf("dataflow: node %q: filter %q takes %d inputs, got %d", n.ID, n.Filter, fi.Arity, len(n.Inputs))
		}
		for _, in := range n.Inputs {
			inNode := nw.NodeByID(in)
			if inNode == nil {
				return fmt.Errorf("dataflow: node %q: missing input %q", n.ID, in)
			}
			// Vector-typed values flow only into decompose and vector
			// ops; elementwise math and stencil inputs (field, dims,
			// coords) are scalar.
			switch fi.Class {
			case ClassElementwise, ClassStencil:
				if inNode.Width != 1 {
					return fmt.Errorf("dataflow: node %q: input %q has width %d, want 1", n.ID, in, inNode.Width)
				}
			case ClassVectorOp:
				if inNode.Width < 2 {
					return fmt.Errorf("dataflow: node %q: %s needs a vector-typed input, %q has width %d", n.ID, n.Filter, in, inNode.Width)
				}
			}
		}
		if n.Filter == "decompose" {
			in := nw.NodeByID(n.Inputs[0])
			if n.Comp < 0 || n.Comp >= in.Width {
				return fmt.Errorf("dataflow: node %q: component %d out of range (width %d)", n.ID, n.Comp, in.Width)
			}
		}
	}
	return nil
}
