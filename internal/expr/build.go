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
		memo:      make(map[string]string),
		expanding: make(map[string]bool),
		locals:    make(map[string]string),
	}
	last, err := b.emitProgram(p)
	if err != nil {
		return nil, err
	}
	if err := b.net.SetOutput(last); err != nil {
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

// builder carries network-emission state.
type builder struct {
	net  *dataflow.Network
	defs map[string]*Program
	// memo maps an expanded definition name to its result node.
	memo map[string]string
	// expanding guards against recursive definitions.
	expanding map[string]bool
	// locals maps the current scope's assigned names directly to node
	// IDs — resolution is eager, so later shadowing (a definition
	// introducing a source with a caller's name, or vice versa) cannot
	// rebind earlier references. Aliases are still registered on the
	// network ("name" at top level, "def::name" inside expansions) for
	// external lookup.
	locals map[string]string
	prefix string
}

// emitProgram realizes a statement list in the current scope and
// returns the last statement's value.
func (b *builder) emitProgram(p *Program) (string, error) {
	var last string
	for _, s := range p.Stmts {
		id, err := b.emit(s.X)
		if err != nil {
			return "", err
		}
		if s.Name != "" {
			key := s.Name
			if b.prefix != "" {
				key = b.prefix + "::" + s.Name
			}
			if err := b.net.Alias(key, id); err != nil {
				return "", err
			}
			node := b.net.Node(id)
			if node == nil {
				return "", fmt.Errorf("expr: internal error: assignment %q lost its node", s.Name)
			}
			b.locals[s.Name] = node.ID
		}
		last = id
	}
	return last, nil
}

// expandDefinition inlines a named definition once and memoizes its
// result node.
func (b *builder) expandDefinition(name string) (string, error) {
	if id, ok := b.memo[name]; ok {
		return id, nil
	}
	if b.expanding[name] {
		return "", fmt.Errorf("expr: definition %q is recursive", name)
	}
	b.expanding[name] = true
	defer delete(b.expanding, name)

	savedLocals, savedPrefix := b.locals, b.prefix
	b.locals = make(map[string]string)
	b.prefix = name
	last, err := b.emitProgram(b.defs[name])
	b.locals, b.prefix = savedLocals, savedPrefix
	if err != nil {
		return "", fmt.Errorf("expr: definition %q: %w", name, err)
	}
	node := b.net.Node(last)
	if node == nil {
		return "", fmt.Errorf("expr: definition %q produced no value", name)
	}
	b.memo[name] = node.ID
	return node.ID, nil
}

// binaryFilter maps operator tokens to primitive names.
var binaryFilter = map[string]string{
	"+":  "add",
	"-":  "sub",
	"*":  "mul",
	"/":  "div",
	">":  "gt",
	"<":  "lt",
	">=": "ge",
	"<=": "le",
	"==": "eq",
	"!=": "ne",
}

// emit recursively realizes a parse-tree node in the network and
// returns its node ID or alias key.
func (b *builder) emit(n Node) (string, error) {
	switch t := n.(type) {
	case *Num:
		return b.net.AddConst(t.Value), nil

	case *Ref:
		// Resolution order: the current scope's assignments, then the
		// definition database, then existing nodes (sources), then a
		// fresh host source.
		if id, ok := b.locals[t.Name]; ok {
			return id, nil
		}
		if b.defs != nil {
			if _, ok := b.defs[t.Name]; ok {
				return b.expandDefinition(t.Name)
			}
		}
		if n := b.net.NodeByID(t.Name); n != nil {
			if n.Filter != "source" {
				return "", fmt.Errorf("expr: name %q collides with an internal node", t.Name)
			}
			return t.Name, nil
		}
		return b.net.AddSource(t.Name)

	case *Unary:
		if t.Op != "-" {
			return "", fmt.Errorf("expr: unsupported unary operator %q", t.Op)
		}
		x, err := b.emit(t.X)
		if err != nil {
			return "", err
		}
		return b.net.AddFilter("neg", x)

	case *Binary:
		filter, ok := binaryFilter[t.Op]
		if !ok {
			return "", fmt.Errorf("expr: unsupported operator %q", t.Op)
		}
		l, err := b.emit(t.L)
		if err != nil {
			return "", err
		}
		r, err := b.emit(t.R)
		if err != nil {
			return "", err
		}
		return b.net.AddFilter(filter, l, r)

	case *Index:
		base, err := b.emit(t.Base)
		if err != nil {
			return "", err
		}
		return b.net.AddDecompose(base, t.Comp)

	case *If:
		// Array semantics: both branches are evaluated everywhere and
		// the condition selects per element.
		cond, err := b.emit(t.Cond)
		if err != nil {
			return "", err
		}
		then, err := b.emit(t.Then)
		if err != nil {
			return "", err
		}
		els, err := b.emit(t.Else)
		if err != nil {
			return "", err
		}
		return b.net.AddFilter("select", cond, then, els)

	case *Call:
		if !dataflow.IsCallable(t.Fun) {
			return "", fmt.Errorf("expr: unknown function %q", t.Fun)
		}
		fi, _ := dataflow.Lookup(t.Fun)
		if len(t.Args) != fi.Arity {
			return "", fmt.Errorf("expr: %s takes %d argument(s), got %d", t.Fun, fi.Arity, len(t.Args))
		}
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			id, err := b.emit(a)
			if err != nil {
				return "", err
			}
			args[i] = id
		}
		return b.net.AddFilter(t.Fun, args...)

	default:
		return "", fmt.Errorf("expr: unhandled node type %T", n)
	}
}
