package expr

import (
	"fmt"

	"dfg/internal/dataflow"
	"dfg/internal/passes"
)

// BuildNetworkWithDefinitions traverses a parse tree and emits the
// dataflow network specification, as the paper's parser does: filter
// invocations get generic names, assignment statements alias them to the
// user's names, and names never assigned become host-provided source
// arrays. The last statement's value is the network output.
//
// defs (may be nil) is a database of named expression definitions — the
// expression-list facility visualization tools provide. A reference to a
// defined name expands its program inline (once; repeated references
// reuse the expansion). Definition programs have their own local
// namespace: their assignments do not leak into, or read from, the
// caller's names, but both share host sources.
//
// The network builder checks every node as it is added (arity, widths,
// decompose range), so the network returned is valid without a
// Validate pass of its own.
func BuildNetworkWithDefinitions(p *Program, defs map[string]*Program) (*dataflow.Network, error) {
	if len(p.Stmts) == 0 {
		return nil, fmt.Errorf("expr: program has no statements")
	}
	b := &builder{
		net:       dataflow.NewNetwork(),
		defs:      defs,
		memo:      make(map[string]int32),
		expanding: make(map[string]bool),
		locals:    make(map[string]int32, len(p.Stmts)),
	}
	b.grow(p)
	last, err := b.emitProgram(p)
	if err != nil {
		return nil, err
	}
	if err := b.net.SetRootsAt(last); err != nil {
		return nil, err
	}
	return b.net, nil
}

// Compile parses expression text and produces the optimized dataflow
// network: parse tree -> network specification -> the Paper pass
// pipeline (constant pooling and limited common sub-expression
// elimination).
func Compile(input string) (*dataflow.Network, error) {
	return CompileWithDefinitions(input, nil)
}

// CompileWithDefinitions is Compile against a database of named
// expression definitions (name -> expression program text). It runs the
// passes.Paper pipeline, reproducing the paper's front end exactly.
func CompileWithDefinitions(input string, defs map[string]string) (*dataflow.Network, error) {
	net, _, err := CompileWithPipeline(input, defs, passes.Paper, passes.RunOptions{})
	return net, err
}

// CompileWithPipeline compiles expression text through an explicit
// optimisation pipeline: parse tree -> network specification -> the
// pipeline's passes -> sealed network. The returned Result carries the
// per-pass records (node deltas, removed IDs, timings) for metrics and
// tracing; it is valid even though the network is sealed afterwards.
func CompileWithPipeline(input string, defs map[string]string, pipe *passes.Pipeline, opt passes.RunOptions) (*dataflow.Network, *passes.Result, error) {
	p, err := Parse(input)
	if err != nil {
		return nil, nil, err
	}
	parsedDefs := make(map[string]*Program, len(defs))
	for name, text := range defs {
		dp, err := Parse(text)
		if err != nil {
			return nil, nil, fmt.Errorf("expr: definition %q: %w", name, err)
		}
		parsedDefs[name] = dp
	}
	net, err := BuildNetworkWithDefinitions(p, parsedDefs)
	if err != nil {
		return nil, nil, err
	}
	res, err := pipe.RunWith(net, opt)
	if err != nil {
		return nil, nil, err
	}
	// Compiled networks are sealed: strategies, engines and the shared
	// compile cache may read them concurrently, so no further mutation is
	// permitted.
	net.Seal()
	return net, res, nil
}

// builder carries network-emission state. It addresses nodes by
// position: each identifier is looked up once, in one map, and every
// node is added by position.
type builder struct {
	net  *dataflow.Network
	defs map[string]*Program
	// memo maps an expanded definition name to its result node.
	memo map[string]int32
	// expanding guards against recursive definitions.
	expanding map[string]bool
	// locals maps the current scope's assigned names directly to node
	// positions — resolution is eager, so later shadowing (a definition
	// introducing a source with a caller's name, or vice versa) cannot
	// rebind earlier references. Aliases are still registered on the
	// network ("name" at top level, "def::name" inside expansions) for
	// external lookup.
	locals map[string]int32
	prefix string
}

// sourceRoom is how many of a program's Refs the builder reserves a
// node for: the ones that name a host source rather than an assignment.
// Q-criterion reads seven sources; a program that reads more takes the
// rest from a chunk.
const sourceRoom = 8

// grow sizes the network for the program the builder is about to emit,
// from the counts its parse made: one node per non-Ref AST node, with
// the input slots those nodes take, and one name per assignment, each
// with room for the program's sources (which take no inputs).
func (b *builder) grow(p *Program) {
	srcs := min(p.refs, sourceRoom)
	b.net.Grow(p.nodes+srcs, p.inputs, p.named+srcs)
}

// emitProgram realizes a statement list in the current scope and
// returns the last statement's value.
func (b *builder) emitProgram(p *Program) (int32, error) {
	var last int32
	for _, s := range p.Stmts {
		at, err := b.emit(s.X)
		if err != nil {
			return 0, err
		}
		if s.Name != "" {
			key := s.Name
			if b.prefix != "" {
				key = b.prefix + "::" + s.Name
			}
			if err := b.net.AliasAt(key, at); err != nil {
				return 0, err
			}
			b.locals[s.Name] = at
		}
		last = at
	}
	return last, nil
}

// expandDefinition inlines a named definition once and memoizes its
// result node.
func (b *builder) expandDefinition(name string) (int32, error) {
	if at, ok := b.memo[name]; ok {
		return at, nil
	}
	if b.expanding[name] {
		return 0, fmt.Errorf("expr: definition %q is recursive", name)
	}
	b.expanding[name] = true
	defer delete(b.expanding, name)

	if len(b.defs[name].Stmts) == 0 {
		return 0, fmt.Errorf("expr: definition %q produced no value", name)
	}
	savedLocals, savedPrefix := b.locals, b.prefix
	b.grow(b.defs[name])
	b.locals = make(map[string]int32, len(b.defs[name].Stmts))
	b.prefix = name
	last, err := b.emitProgram(b.defs[name])
	b.locals, b.prefix = savedLocals, savedPrefix
	if err != nil {
		return 0, fmt.Errorf("expr: definition %q: %w", name, err)
	}
	b.memo[name] = last
	return last, nil
}

// prim is the callable primitive called name, which must exist.
func prim(name string) dataflow.Prim {
	f, ok := dataflow.Callable(name)
	if !ok {
		panic("expr: no primitive " + name)
	}
	return f
}

// binaryFilters maps operator tokens to primitives.
var binaryFilters = []struct {
	op string
	f  dataflow.Prim
}{
	{"+", prim("add")}, {"-", prim("sub")}, {"*", prim("mul")}, {"/", prim("div")},
	{">", prim("gt")}, {"<", prim("lt")}, {">=", prim("ge")}, {"<=", prim("le")},
	{"==", prim("eq")}, {"!=", prim("ne")},
}

var neg, sel = prim("neg"), prim("select")

// emit recursively realizes a parse-tree node in the network and
// returns its position.
func (b *builder) emit(n Node) (int32, error) {
	switch t := n.(type) {
	case *Num:
		return b.net.AddConstAt(t.Value), nil

	case *Ref:
		// Resolution order: the current scope's assignments, then the
		// definition database, then the host sources (a fresh one on
		// first use).
		if at, ok := b.locals[t.Name]; ok {
			return at, nil
		}
		if _, ok := b.defs[t.Name]; ok {
			return b.expandDefinition(t.Name)
		}
		at, err := b.net.Source(t.Name)
		if err != nil {
			return 0, fmt.Errorf("expr: name %q collides with an internal node", t.Name)
		}
		return at, nil

	case *Unary:
		if t.Op != "-" {
			return 0, fmt.Errorf("expr: unsupported unary operator %q", t.Op)
		}
		x, err := b.emit(t.X)
		if err != nil {
			return 0, err
		}
		return b.net.AddFilterAt(neg, x)

	case *Binary:
		var f dataflow.Prim
		for _, bf := range binaryFilters {
			if bf.op == t.Op {
				f = bf.f
				break
			}
		}
		if f == (dataflow.Prim{}) {
			return 0, fmt.Errorf("expr: unsupported operator %q", t.Op)
		}
		l, err := b.emit(t.L)
		if err != nil {
			return 0, err
		}
		r, err := b.emit(t.R)
		if err != nil {
			return 0, err
		}
		return b.net.AddFilterAt(f, l, r)

	case *Index:
		base, err := b.emit(t.Base)
		if err != nil {
			return 0, err
		}
		return b.net.AddDecomposeAt(base, t.Comp)

	case *If:
		// Array semantics: both branches are evaluated everywhere and
		// the condition selects per element.
		cond, err := b.emit(t.Cond)
		if err != nil {
			return 0, err
		}
		then, err := b.emit(t.Then)
		if err != nil {
			return 0, err
		}
		els, err := b.emit(t.Else)
		if err != nil {
			return 0, err
		}
		return b.net.AddFilterAt(sel, cond, then, els)

	case *Call:
		f, ok := dataflow.Callable(t.Fun)
		if !ok {
			return 0, fmt.Errorf("expr: unknown function %q", t.Fun)
		}
		if arity := f.Info().Arity; len(t.Args) != arity {
			return 0, fmt.Errorf("expr: %s takes %d argument(s), got %d", t.Fun, arity, len(t.Args))
		}
		var buf [5]int32 // grad3d's five arguments, the most any filter takes
		args := buf[:0]
		for _, a := range t.Args {
			at, err := b.emit(a)
			if err != nil {
				return 0, err
			}
			args = append(args, at)
		}
		return b.net.AddFilterAt(f, args...)

	default:
		return 0, fmt.Errorf("expr: unhandled node type %T", n)
	}
}
