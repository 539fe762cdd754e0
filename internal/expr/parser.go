package expr

import (
	"fmt"
	"math"
	"sync"

	"dfg/internal/lalr"
)

// grammar builds the expression language's LALR(1) grammar from rules.
func grammar() *lalr.Grammar {
	g := lalr.NewGrammar("program")
	rules(g.Rule)
	return g
}

// rules hands every production of the expression language, with its
// action, to rule, in the grammar's order. The grammar is written
// unambiguously (expr/term/factor layering), matching the limited
// grammar the paper describes: binary arithmetic, unary minus,
// function-style filter invocation, bracket component selection,
// parenthesized sub-expressions, and newline/semicolon-separated
// assignment statements. Every action takes its node from the parse's
// arena (the env Table.Parse hands it).
func rules(rule func(rule string, action func(env any, vals []any) any)) {
	// The statement list grows in place in the arena's Program, so a
	// reduction hands on a pointer, never a boxed slice header.
	rule("program : stmts", nil)
	rule("stmts : stmts SEP stmt", func(env any, v []any) any {
		p := v[0].(*Program)
		p.Stmts = append(p.Stmts, v[2].(*Stmt))
		return p
	})
	rule("stmts : stmt", func(env any, v []any) any {
		p := &env.(*arena).prog
		p.Stmts = append(p.Stmts, v[0].(*Stmt))
		return p
	})

	rule("stmt : IDENT = rel", func(env any, v []any) any {
		s := take(&env.(*arena).stmts)
		*s = Stmt{Name: v[0].(*lalr.Token).Text, X: v[2].(Node)}
		return s
	})
	rule("stmt : rel", func(env any, v []any) any {
		s := take(&env.(*arena).stmts)
		s.X = v[0].(Node)
		return s
	})

	bin := func(op string) func(any, []any) any {
		return func(env any, v []any) any {
			b := take(&env.(*arena).bins)
			*b = Binary{Op: op, L: v[0].(Node), R: v[2].(Node)}
			return b
		}
	}
	// Relational operators bind loosest and do not chain (a < b < c is
	// a syntax error, as in most expression languages).
	for _, op := range []string{">", "<", ">=", "<=", "==", "!="} {
		rule("rel : expr "+op+" expr", bin(op))
	}
	rule("rel : expr", nil)

	rule("expr : expr + term", bin("+"))
	rule("expr : expr - term", bin("-"))
	rule("expr : term", nil)
	rule("term : term * factor", bin("*"))
	rule("term : term / factor", bin("/"))
	rule("term : factor", nil)

	rule("factor : - factor", func(env any, v []any) any {
		u := take(&env.(*arena).unaries)
		*u = Unary{Op: "-", X: v[1].(Node)}
		return u
	})
	rule("factor : postfix", nil)

	// Component indices must be small non-negative integers; the first
	// violation in the text is the parse's error.
	rule("postfix : postfix [ NUMBER ]", func(env any, v []any) any {
		a := env.(*arena)
		f := number(v[2])
		x := take(&a.indexes)
		*x = Index{Base: v[0].(Node), Comp: int(f)}
		switch {
		case f != math.Trunc(f):
			a.fail(fmt.Errorf("expr: component index %s out of range [0, 3]", v[2].(*lalr.Token).Text))
		case x.Comp < 0 || x.Comp > 3:
			a.fail(fmt.Errorf("expr: component index %d out of range [0, 3]", x.Comp))
		}
		return x
	})
	rule("postfix : primary", nil)

	rule("primary : NUMBER", func(env any, v []any) any {
		a := env.(*arena)
		n := take(&a.nums)
		n.Value = number(v[0])
		if math.IsNaN(n.Value) || math.IsInf(n.Value, 0) {
			a.fail(fmt.Errorf("expr: non-finite constant"))
		}
		return n
	})
	rule("primary : IDENT", func(env any, v []any) any {
		r := take(&env.(*arena).refs)
		r.Name = v[0].(*lalr.Token).Text
		return r
	})
	// The argument list is the Call itself: args builds it, and the
	// invocation only names it.
	rule("primary : IDENT ( args )", func(env any, v []any) any {
		c := v[2].(*Call)
		c.Fun = v[0].(*lalr.Token).Text
		return c
	})
	rule("primary : ( rel )", func(env any, v []any) any { return v[1] })

	// The paper's introduction sketches conditional expressions:
	// a = if (cond) then (x) else (y). Both branches are primaries, so
	// the usual written form parenthesizes them.
	rule("primary : IF ( rel ) THEN primary ELSE primary", func(env any, v []any) any {
		f := take(&env.(*arena).ifs)
		*f = If{Cond: v[2].(Node), Then: v[5].(Node), Else: v[7].(Node)}
		return f
	})

	rule("args : args , rel", func(env any, v []any) any {
		c := v[0].(*Call)
		c.Args = append(c.Args, v[2].(Node))
		return c
	})
	rule("args : rel", func(env any, v []any) any {
		a := env.(*arena)
		c := take(&a.calls)
		c.Args = append(a.argList(), v[0].(Node))
		return c
	})
}

// Chunk sizes. An argument list starts in a window of argWindow slots,
// grad3d's five arguments, the most any filter takes; a longer list
// outgrows its window into a slice of its own.
const (
	chunk      = 16 // AST nodes of one type per chunk
	argWindow  = 5
	argWindows = 4 // argument-list windows per argument chunk
)

// arena is one parse's allocator and the env its actions receive. The
// AST nodes come from fixed-size chunks the arena owns, so a parse
// allocates per chunk, not per node. Every Parse makes its own arena:
// the tree it returns is the arena's, and outlives the parse (a
// Compiler keeps defined programs), so arenas are never pooled or
// shared between parses.
type arena struct {
	prog    Program
	stmts   []Stmt
	refs    []Ref
	nums    []Num
	bins    []Binary
	unaries []Unary
	indexes []Index
	calls   []Call
	ifs     []If
	args    []Node
	err     error // the first semantic error, in text order
}

// size counts what a parse of toks makes (exactly, when the parse
// succeeds), starts each of the arena's chunks at its count, so a parse
// allocates one chunk per node type it makes, and records the counts
// the network builder sizes by. lex leaves separators only between
// statements; an IDENT is an assignment's target before '=', a Call's
// name before '(' and a Ref otherwise; a NUMBER after '[' is an
// Index's component and a Num otherwise; a '-' after an operand is a
// Binary and a Unary otherwise; and a Call has one argument more than
// it has commas.
func (a *arena) size(toks []lalr.Token) {
	stmts, named, refs, nums, bins, unaries, indexes, calls, ifs, commas := 1, 0, 0, 0, 0, 0, 0, 0, 0, 0
	prev := clsOther
	for i := range toks {
		c := syms.class[toks[i].Sym]
		switch c {
		case clsSep:
			stmts++
		case clsIdent:
			next := clsOther
			if i+1 < len(toks) {
				next = syms.class[toks[i+1].Sym]
			}
			switch next {
			case clsAssign:
				named++
			case clsOpen:
				calls++
			default:
				refs++
			}
		case clsNumber:
			if prev != clsIndex {
				nums++
			}
		case clsIndex:
			indexes++
		case clsIf:
			ifs++
		case clsMinus:
			if prev == clsIdent || prev == clsNumber || prev == clsClose {
				bins++
			} else {
				unaries++
			}
		case clsBinary:
			bins++
		case clsComma:
			commas++
		}
		prev = c
	}
	a.prog.Stmts = make([]*Stmt, 0, stmts)
	a.prog.nodes, a.prog.refs, a.prog.named = nums+bins+unaries+indexes+calls+ifs, refs, named
	a.prog.inputs = 2*bins + unaries + indexes + 3*ifs + calls + commas
	a.stmts = chunkOf[Stmt](stmts)
	a.refs, a.nums, a.bins = chunkOf[Ref](refs), chunkOf[Num](nums), chunkOf[Binary](bins)
	a.unaries, a.indexes, a.ifs = chunkOf[Unary](unaries), chunkOf[Index](indexes), chunkOf[If](ifs)
	a.calls, a.args = chunkOf[Call](calls), chunkOf[Node](calls*argWindow)
}

// chunkOf returns an empty chunk with room for n elements, nil for none.
func chunkOf[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// take returns the next free element of a chunk, starting a new chunk
// when this one is full. Elements are never moved, so the pointer stays
// valid for the tree's lifetime.
func take[T any](s *[]T) *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, chunk)
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// argList returns an empty argument list whose window of argWindow
// slots lies in the arena's current argument chunk. The window is a
// full-slice expression, so appending past it reallocates instead of
// overrunning the next list.
func (a *arena) argList() []Node {
	if cap(a.args)-len(a.args) < argWindow {
		a.args = make([]Node, 0, argWindows*argWindow)
	}
	n := len(a.args)
	a.args = a.args[:n+argWindow]
	return a.args[n : n : n+argWindow]
}

// fail records err unless an earlier error is already recorded.
func (a *arena) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// number reads a shifted NUMBER token's value, which lex converted
// when it accepted the text.
func number(v any) float64 { return v.(*lalr.Token).Num }

var (
	tableOnce sync.Once
	table     *lalr.Table
	syms      symbols // the table's terminal numbers lex emits
	tableErr  error
)

// parseTable builds (once) the language's LALR(1) parse table.
func parseTable() (*lalr.Table, error) {
	tableOnce.Do(func() {
		table, tableErr = lalr.Build(grammar())
		if tableErr == nil && len(table.Conflicts) > 0 {
			tableErr = fmt.Errorf("expr: grammar has %d conflicts", len(table.Conflicts))
		}
		if tableErr == nil {
			syms, tableErr = readSymbols(table)
		}
	})
	return table, tableErr
}

// tokens lends token slices to parses. No action keeps a token (the
// tree holds only substrings of the input), so a parse hands its slice
// back when it returns.
var tokens = sync.Pool{New: func() any { return new([]lalr.Token) }}

// GrammarReport renders the expression language's LALR(1) grammar and
// parse table in yacc's y.output style (states, items, actions) — the
// debugging view PLY writes to parser.out. Exposed via dfg-fuse -grammar.
func GrammarReport() (string, error) {
	tbl, err := parseTable()
	if err != nil {
		return "", err
	}
	return tbl.Report(), nil
}

// Parse tokenizes and parses expression text into its parse tree.
func Parse(input string) (*Program, error) {
	tbl, err := parseTable()
	if err != nil {
		return nil, err
	}
	buf := tokens.Get().(*[]lalr.Token)
	defer tokens.Put(buf)
	toks, err := lex(input, *buf)
	if err != nil {
		return nil, err
	}
	*buf = toks
	if len(toks) == 0 {
		return nil, fmt.Errorf("expr: empty expression")
	}
	a := &arena{}
	a.size(toks)
	v, err := tbl.Parse(toks, a)
	if err != nil {
		return nil, decorate(input, err)
	}
	if a.err != nil {
		return nil, a.err
	}
	return v.(*Program), nil
}
