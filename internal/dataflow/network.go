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

// Prim returns the node's primitive.
func (n *Node) Prim() Prim { return Prim{n.info} }

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
// building a network allocates per chunk, not per node. The builder and
// everything after it — passes, scheduling, lowering — address nodes by
// position (Source and the ...At methods); networks built by hand in
// tests name their nodes through dataflow/dftest. Only sources and
// aliases are indexed by name: a minted ID is found by a scan, which
// only tools and tests ask for. A name maps to a slot of one position
// slice, so Compact moves every name by rewriting that slice and
// rehashes none.
type Network struct {
	nodes   []*Node
	srcs    map[string]int32 // source name -> slot of pos
	aliases map[string]int32 // user name -> slot of pos (assignment statements)
	pos     []int32          // slot -> the named node's position; -1 once deleted
	// roots are the positions of the sinks: one for a single-output
	// network, several for a super-network merged from several
	// expressions. roots[0] is the primary output.
	roots  []int32
	nextID int
	taken  []int // generic IDs sources took before genID reached them
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
func NewNetwork() *Network { return &Network{} }

// Grow reserves room for nodes more nodes taking inputs more Inputs
// slots between them, and names more source and alias names, so a
// builder that knows its size up front (the expression front end
// counts it from the tokens) grows neither the node list, the Inputs
// storage nor the name index while it adds them. A short reservation
// takes a whole chunk, whose rest the next ones share.
func (nw *Network) Grow(nodes, inputs, names int) {
	nw.mustMutable("Grow")
	nw.nodes = slices.Grow(nw.nodes, nodes)
	if cap(nw.slab)-len(nw.slab) < nodes {
		nw.slab = make([]Node, 0, nodes)
	}
	if cap(nw.ins)-len(nw.ins) < inputs {
		nw.ins = make([]int32, 0, max(inputChunk, inputs))
	}
	if nw.aliases == nil {
		nw.aliases = make(map[string]int32, names)
	}
	nw.pos = slices.Grow(nw.pos, names)
}

// named returns the position of the node bound to name in names.
func (nw *Network) named(names map[string]int32, name string) (int32, bool) {
	if s, ok := names[name]; ok && nw.pos[s] >= 0 {
		return nw.pos[s], true
	}
	return 0, false
}

// bind binds name in *names to position p, giving it a slot on first use.
func (nw *Network) bind(names *map[string]int32, name string, p int32) {
	if s, ok := (*names)[name]; ok {
		nw.pos[s] = p
		return
	}
	if *names == nil {
		*names = make(map[string]int32)
	}
	(*names)[name] = int32(len(nw.pos))
	nw.pos = append(nw.pos, p)
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

// lookup returns the position of the node whose ID is id.
func (nw *Network) lookup(id string) (int32, bool) {
	if p, ok := nw.named(nw.srcs, id); ok || !nw.minted(id) {
		return p, ok
	}
	for i, n := range nw.nodes {
		if n.ID == id {
			return int32(i), true
		}
	}
	return 0, false
}

// minted reports whether name is a generic ID genID has handed out, or
// skipped because a source took it.
func (nw *Network) minted(name string) bool {
	k, ok := generic(name)
	return ok && k < nw.nextID
}

// generic parses a name of the form genID mints.
func generic(name string) (int, bool) {
	if len(name) < 2 || name[0] != 't' {
		return 0, false
	}
	k, err := strconv.Atoi(name[1:])
	return k, err == nil && k >= 0 && strconv.Itoa(k) == name[1:]
}

// Chunk sizes: how many Nodes, and how many Inputs slots, a network
// allocates at a time past what Grow reserved.
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
	for slices.Contains(nw.taken, nw.nextID) {
		nw.nextID++
	}
	i := nw.nextID
	nw.nextID++
	if i < len(genericIDs) {
		return genericIDs[i]
	}
	return "t" + strconv.Itoa(i)
}

// slot returns storage for the next node from the current chunk, for
// the caller to fill in place and add.
func (nw *Network) slot() *Node {
	if len(nw.slab) == cap(nw.slab) {
		nw.slab = make([]Node, 0, nodeChunk)
	}
	return &nw.slab[:len(nw.slab)+1][len(nw.slab)]
}

// add appends the node slot returned and returns its position.
func (nw *Network) add(n *Node) int32 {
	nw.slab = nw.slab[:len(nw.slab)+1]
	n.pos = int32(len(nw.nodes))
	nw.nodes = append(nw.nodes, n)
	return n.pos
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

// at checks that p is a node's position.
func (nw *Network) at(p int32) error {
	if p < 0 || int(p) >= len(nw.nodes) {
		return fmt.Errorf("dataflow: no node at position %d", p)
	}
	return nil
}

// Source returns the position of the host-provided input array called
// name, declaring it on first use. A name another node holds as its ID
// is an error.
func (nw *Network) Source(name string) (int32, error) {
	nw.mustMutable("AddSource")
	if p, ok := nw.named(nw.srcs, name); ok {
		return p, nil
	}
	if name == "" {
		return 0, fmt.Errorf("dataflow: source needs a name")
	}
	if nw.minted(name) {
		return 0, fmt.Errorf("dataflow: duplicate node id %q", name)
	}
	if k, ok := generic(name); ok {
		nw.taken = append(nw.taken, k)
	}
	n := nw.slot()
	*n = Node{ID: name, Filter: "source", Width: 1, info: sourceRow}
	p := nw.add(n)
	nw.bind(&nw.srcs, name, p)
	return p, nil
}

// AddConstAt adds a scalar constant source and returns its position.
func (nw *Network) AddConstAt(v float64) int32 {
	nw.mustMutable("AddConst")
	n := nw.slot()
	*n = Node{ID: nw.genID(), Filter: "const", Value: v, Width: 1, info: constRow}
	return nw.add(n)
}

// AddFilterAt adds an invocation of the primitive f on the nodes at the
// given positions and returns the new node's position. The filter's
// arity and its inputs' widths are checked here, so a network the
// builder accepts is well-typed.
func (nw *Network) AddFilterAt(f Prim, inputs ...int32) (int32, error) {
	nw.mustMutable("AddFilter")
	fi := f.info
	switch {
	case fi == nil:
		return 0, fmt.Errorf("dataflow: AddFilterAt needs a primitive")
	case fi.Class == ClassSource || fi.Class == ClassConst:
		return 0, fmt.Errorf("dataflow: use AddSource/AddConst for %q", fi.Name)
	case fi.Class == ClassDecompose:
		return 0, fmt.Errorf("dataflow: use AddDecompose for component selection")
	case len(inputs) != fi.Arity:
		return 0, fmt.Errorf("dataflow: filter %q takes %d inputs, got %d", fi.Name, fi.Arity, len(inputs))
	}
	for i, p := range inputs {
		if err := nw.at(p); err != nil {
			return 0, fmt.Errorf("%w (input %d of %q)", err, i, fi.Name)
		}
	}
	next := nw.nextID
	n := nw.slot()
	*n = Node{ID: nw.genID(), Filter: fi.Name, Inputs: nw.window(len(inputs)), Width: fi.OutWidth, info: fi}
	copy(n.Inputs, inputs)
	if err := nw.checkWidths(n); err != nil {
		nw.nextID = next // the ID and the slot were not taken
		return 0, err
	}
	return nw.add(n), nil
}

// AddDecomposeAt adds a component selection of the vector-valued node
// at position in (the parser's translation of the bracket syntax, e.g.
// du[1]) and returns its position.
func (nw *Network) AddDecomposeAt(in int32, comp int) (int32, error) {
	nw.mustMutable("AddDecompose")
	if err := nw.at(in); err != nil {
		return 0, err
	}
	n := nw.nodes[in]
	if n.Width < 2 {
		return 0, fmt.Errorf("dataflow: cannot decompose scalar node %q", n.ID)
	}
	if comp < 0 || comp >= n.Width {
		return 0, fmt.Errorf("dataflow: component %d out of range for %q (width %d)", comp, n.ID, n.Width)
	}
	d := nw.slot()
	*d = Node{ID: nw.genID(), Filter: "decompose", Inputs: nw.window(1), Comp: comp, Width: 1, info: decomposeRow}
	d.Inputs[0] = in
	return nw.add(d), nil
}

// AliasAt binds a user-provided name (the left side of an assignment
// statement) to the node at position p. Re-binding an existing alias is
// allowed, as in sequential assignment semantics.
func (nw *Network) AliasAt(name string, p int32) error {
	nw.mustMutable("Alias")
	if err := nw.at(p); err != nil {
		return err
	}
	if _, src := nw.named(nw.srcs, name); src || nw.minted(name) {
		return fmt.Errorf("dataflow: alias %q collides with a node id", name)
	}
	nw.bind(&nw.aliases, name, p)
	return nil
}

// SetRootsAt designates the nodes at the given positions as the sinks —
// several is the super-network form a batch merge produces, one per
// member. The first root becomes the primary output, so Output() and
// every single-root code path stay meaningful.
func (nw *Network) SetRootsAt(ps ...int32) error {
	nw.mustMutable("SetRoots")
	if len(ps) == 0 {
		return fmt.Errorf("dataflow: SetRoots needs at least one root")
	}
	for _, p := range ps {
		if err := nw.at(p); err != nil {
			return err
		}
	}
	nw.roots = slices.Clone(ps)
	return nil
}

// Roots returns the positions of the network's sinks (nil when no
// output is set); the first is the primary output. The returned slice
// must not be mutated.
func (nw *Network) Roots() []int32 { return nw.roots }

// Output returns the node ID of the primary sink ("" if unset).
func (nw *Network) Output() string {
	if len(nw.roots) == 0 {
		return ""
	}
	return nw.nodes[nw.roots[0]].ID
}

// NodeByID returns the node with exactly the given ID (no alias
// fallback), or nil.
func (nw *Network) NodeByID(id string) *Node {
	if p, ok := nw.lookup(id); ok {
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
	out := make([]*Node, 0, len(nw.srcs))
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
	for name, s := range nw.aliases {
		if p := nw.pos[s]; p >= 0 {
			out = append(out, [2]string{name, nw.nodes[p].ID})
		}
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
