package dataflow

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// Node is one module of a dataflow network: a source, a constant, or a
// filter invocation over earlier nodes.
type Node struct {
	// ID is the node's generic name ("t0", "t1", ...) or, for sources,
	// the host-provided array name ("u", "dims", ...). It is the node's
	// display name: scripts, DOT, JSON and generated source print it.
	ID string
	// Filter names the primitive ("source", "const", "add", "grad3d", ...).
	Filter string
	// Inputs are the positions in Nodes() of this node's input nodes, in
	// argument order. Every input precedes its node.
	Inputs []int32
	// Value is the scalar for const nodes.
	Value float64
	// Comp is the selected component for decompose nodes.
	Comp int
	// Width is the node's output width in float32 components.
	Width int

	pos  int32       // position in Nodes()
	info *FilterInfo // the filter's registry row, resolved when the node is added
}

// Info returns the node's filter metadata.
func (n *Node) Info() FilterInfo { return *n.info }

// Pos returns the node's position in its network's Nodes().
func (n *Node) Pos() int32 { return n.pos }

// Network is a dataflow network specification: an ordered list of nodes
// with one or more designated sinks. Construction is "create and
// connect": every input named when a node is added must already exist
// and have the width the filter reads, so a network is acyclic and
// well-typed by construction (Seal re-checks anyway).
//
// A network has two phases: a single-goroutine construction phase, and —
// once Seal is called — an immutable execution phase. Sealed networks are
// safe to share across goroutines and engines; the expression front end
// seals every network it compiles.
//
// Nodes and their Inputs live in fixed-size chunks the network owns, so
// building a network allocates per chunk, not per node. Everything after
// the builder — passes, scheduling, lowering — addresses nodes by
// position; byID, the name index the builder resolves through, is
// rebuilt only when a name is looked up after a compaction.
type Network struct {
	nodes   []*Node
	byID    map[string]int32 // node ID -> position; nil while stale
	aliases map[string]int32 // user name -> position (assignment statements)
	// roots are the positions of the sinks: one for a single-output
	// network, several for a super-network merged from several
	// expressions. roots[0] is the primary output.
	roots  []int32
	nextID int
	sealed bool
	// The chunks new nodes and Inputs windows are taken from.
	slab []Node
	ins  []int32
	// Seal's one validation and order, returned by Validate and
	// TopoOrder from then on.
	valid    error
	order    []*Node
	orderErr error
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		byID:    make(map[string]int32),
		aliases: make(map[string]int32),
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
	nw.index() // built now, so concurrent name lookups only read it
	nw.order, nw.orderErr = nw.topoOrder()
	nw.valid = nw.checkNodes()
	if nw.valid == nil && len(nw.roots) > 0 {
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

// index returns the ID -> position index, rebuilding it if a
// compaction left it stale.
func (nw *Network) index() map[string]int32 {
	if nw.byID == nil {
		nw.byID = make(map[string]int32, len(nw.nodes))
		for i, n := range nw.nodes {
			nw.byID[n.ID] = int32(i)
		}
	}
	return nw.byID
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
		if _, taken := nw.index()[id]; !taken {
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
	n.pos = int32(len(nw.nodes))
	if n.info == nil {
		n.info = registry[n.Filter]
	}
	nw.slab = append(nw.slab, n)
	p := &nw.slab[len(nw.slab)-1]
	nw.index()[p.ID] = p.pos
	nw.nodes = append(nw.nodes, p)
	return p
}

// window returns a k-slot Inputs slice from the current chunk. Its
// capacity ends where it does (a full-slice expression), so appending
// to one node's Inputs reallocates instead of overrunning a neighbour.
func (nw *Network) window(k int) []int32 {
	if cap(nw.ins)-len(nw.ins) < k {
		nw.ins = make([]int32, 0, max(inputChunk, k))
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
	if _, dup := nw.index()[name]; dup {
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
// new node's generic ID. Input names may be user aliases. The filter's
// arity and its inputs' widths are checked here, so a network the
// builder accepts is well-typed.
func (nw *Network) AddFilter(filter string, inputs ...string) (string, error) {
	nw.mustMutable("AddFilter")
	fi, ok := registry[filter]
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
		p, err := nw.resolve(nm)
		if err != nil {
			return "", fmt.Errorf("%w (input %d of %q)", err, i, filter)
		}
		resolved[i] = p
	}
	next := nw.nextID
	n := Node{ID: nw.genID(), Filter: filter, Inputs: resolved, Width: fi.OutWidth, info: fi}
	if err := nw.checkWidths(&n); err != nil {
		nw.nextID = next // the ID was not taken
		return "", err
	}
	return nw.add(n).ID, nil
}

// AddDecompose adds a component selection of a vector-valued node
// (the parser's translation of the bracket syntax, e.g. du[1]).
func (nw *Network) AddDecompose(input string, comp int) (string, error) {
	nw.mustMutable("AddDecompose")
	p, err := nw.resolve(input)
	if err != nil {
		return "", err
	}
	in := nw.nodes[p]
	if in.Width < 2 {
		return "", fmt.Errorf("dataflow: cannot decompose scalar node %q", input)
	}
	if comp < 0 || comp >= in.Width {
		return "", fmt.Errorf("dataflow: component %d out of range for %q (width %d)", comp, input, in.Width)
	}
	ins := nw.window(1)
	ins[0] = p
	return nw.add(Node{ID: nw.genID(), Filter: "decompose", Inputs: ins, Comp: comp, Width: 1}).ID, nil
}

// Alias binds a user-provided name (the left side of an assignment
// statement) to a node. Re-binding an existing alias is allowed, as in
// sequential assignment semantics.
func (nw *Network) Alias(name, id string) error {
	nw.mustMutable("Alias")
	p, err := nw.resolve(id)
	if err != nil {
		return err
	}
	if _, isNode := nw.index()[name]; isNode {
		return fmt.Errorf("dataflow: alias %q collides with a node id", name)
	}
	nw.aliases[name] = p
	return nil
}

// SetOutput designates the network's sink. It resets any multi-root
// set: a network is either single-output (SetOutput) or multi-root
// (SetRoots), never an inconsistent mix.
func (nw *Network) SetOutput(name string) error {
	return nw.SetRoots(name)
}

// SetRoots designates one or more sinks at once — several is the
// super-network form a batch merge produces. The first root becomes the
// primary output, so Output() and every single-root code path stay
// meaningful. Names may be node IDs or aliases; duplicates are collapsed
// (two merged expressions whose outputs CSE'd into one node share a
// root).
func (nw *Network) SetRoots(names ...string) error {
	nw.mustMutable("SetRoots")
	if len(names) == 0 {
		return fmt.Errorf("dataflow: SetRoots needs at least one root")
	}
	roots := make([]int32, 0, len(names))
	for _, nm := range names {
		p, err := nw.resolve(nm)
		if err != nil {
			return err
		}
		if !slices.Contains(roots, p) {
			roots = append(roots, p)
		}
	}
	nw.roots = roots
	return nil
}

// Roots returns the positions of the network's sinks (nil when no
// output is set); the first is the primary output. The returned slice
// must not be mutated.
func (nw *Network) Roots() []int32 { return nw.roots }

// MultiRoot reports whether the network carries more than one sink.
func (nw *Network) MultiRoot() bool { return len(nw.roots) > 1 }

// Output returns the node ID of the primary sink ("" if unset).
func (nw *Network) Output() string {
	if len(nw.roots) == 0 {
		return ""
	}
	return nw.nodes[nw.roots[0]].ID
}

// resolve maps a name (node ID or user alias) to a position.
func (nw *Network) resolve(name string) (int32, error) {
	if p, ok := nw.index()[name]; ok {
		return p, nil
	}
	if p, ok := nw.aliases[name]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("dataflow: unknown node or alias %q", name)
}

// Node returns the node with the given ID or alias, or nil.
func (nw *Network) Node(name string) *Node {
	p, err := nw.resolve(name)
	if err != nil {
		return nil
	}
	return nw.nodes[p]
}

// NodeByID returns the node with exactly the given ID (no alias
// fallback), or nil.
func (nw *Network) NodeByID(id string) *Node {
	if p, ok := nw.index()[id]; ok {
		return nw.nodes[p]
	}
	return nil
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

// Aliases returns a copy of the user-name bindings as (name, node ID)
// pairs, sorted by name.
func (nw *Network) Aliases() [][2]string {
	out := make([][2]string, 0, len(nw.aliases))
	for name, p := range nw.aliases {
		out = append(out, [2]string{name, nw.nodes[p].ID})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Consumers returns, for every node position, how many input
// connections read it, with each root counted as one extra consumer.
// Strategies use these counts to release intermediate device buffers as
// soon as they drain — the paper's reference-counting design.
func (nw *Network) Consumers() []int {
	counts := make([]int, len(nw.nodes))
	for _, n := range nw.nodes {
		for _, in := range n.Inputs {
			counts[in]++
		}
	}
	for _, r := range nw.roots {
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

// topoOrder runs Kahn's algorithm over node positions, int32 in-degrees
// and a CSR (compressed sparse row) array of each node's dependents, so
// the schedule — and everything derived from it, like generated kernel
// source — is deterministic.
func (nw *Network) topoOrder() ([]*Node, error) {
	if len(nw.roots) == 0 {
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
	reach := func(j int32) {
		if indeg[j] < 0 {
			indeg[j] = int32(len(nw.nodes[j].Inputs)) // every input of a live node is live
			queue = append(queue, j)
		}
	}
	for _, r := range nw.roots {
		reach(r)
	}
	live := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		live++
		for _, j := range nw.nodes[i].Inputs {
			if j < 0 || int(j) >= n {
				return nil, fmt.Errorf("dataflow: node %q: missing input %d", nw.nodes[i].ID, j)
			}
			reach(j)
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
		for _, j := range nd.Inputs {
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

// Validate checks structural integrity: existing inputs, correct
// arities, width agreement, and an acyclic live graph. On a sealed
// network it returns the answer Seal computed.
func (nw *Network) Validate() error {
	if nw.sealed {
		return nw.valid
	}
	if err := nw.checkNodes(); err != nil || len(nw.roots) == 0 {
		return err
	}
	_, err := nw.topoOrder()
	return err
}

// checkNodes is Validate without the acyclicity check.
func (nw *Network) checkNodes() error {
	for _, n := range nw.nodes {
		if len(n.Inputs) != n.info.Arity {
			return fmt.Errorf("dataflow: node %q: filter %q takes %d inputs, got %d", n.ID, n.Filter, n.info.Arity, len(n.Inputs))
		}
		for _, in := range n.Inputs {
			if in < 0 || int(in) >= len(nw.nodes) {
				return fmt.Errorf("dataflow: node %q: missing input %d", n.ID, in)
			}
		}
		if err := nw.checkWidths(n); err != nil {
			return err
		}
		if n.Filter == "decompose" {
			if in := nw.nodes[n.Inputs[0]]; n.Comp < 0 || n.Comp >= in.Width {
				return fmt.Errorf("dataflow: node %q: component %d out of range (width %d)", n.ID, n.Comp, in.Width)
			}
		}
	}
	return nil
}

// checkWidths checks that n's inputs have the widths its filter reads:
// vector-typed values flow only into decompose and vector ops;
// elementwise math and stencil inputs (field, dims, coords) are scalar.
func (nw *Network) checkWidths(n *Node) error {
	for _, p := range n.Inputs {
		in := nw.nodes[p]
		switch n.info.Class {
		case ClassElementwise, ClassStencil:
			if in.Width != 1 {
				return fmt.Errorf("dataflow: node %q: input %q has width %d, want 1", n.ID, in.ID, in.Width)
			}
		case ClassVectorOp:
			if in.Width < 2 {
				return fmt.Errorf("dataflow: node %q: %s needs a vector-typed input, %q has width %d", n.ID, n.Filter, in.ID, in.Width)
			}
		}
	}
	return nil
}
