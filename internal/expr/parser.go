package expr

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"dfg/internal/lalr"
)

// grammar builds the expression language's LALR(1) grammar. The grammar
// is written unambiguously (expr/term/factor layering), matching the
// limited grammar the paper describes: binary arithmetic, unary minus,
// function-style filter invocation, bracket component selection,
// parenthesized sub-expressions, and newline/semicolon-separated
// assignment statements.
func grammar() *lalr.Grammar {
	g := lalr.NewGrammar("program")

	g.Rule("program : stmts", func(v []any) any {
		return &Program{Stmts: v[0].([]*Stmt)}
	})
	g.Rule("stmts : stmts SEP stmt", func(v []any) any {
		return append(v[0].([]*Stmt), v[2].(*Stmt))
	})
	g.Rule("stmts : stmt", func(v []any) any {
		return []*Stmt{v[0].(*Stmt)}
	})

	g.Rule("stmt : IDENT = rel", func(v []any) any {
		return &Stmt{Name: v[0].(*lalr.Token).Text, X: v[2].(Node)}
	})
	g.Rule("stmt : rel", func(v []any) any {
		return &Stmt{X: v[0].(Node)}
	})

	bin := func(op string) func([]any) any {
		return func(v []any) any { return &Binary{Op: op, L: v[0].(Node), R: v[2].(Node)} }
	}
	// Relational operators bind loosest and do not chain (a < b < c is
	// a syntax error, as in most expression languages).
	for _, op := range []string{">", "<", ">=", "<=", "==", "!="} {
		g.Rule("rel : expr "+op+" expr", bin(op))
	}
	g.Rule("rel : expr", nil)

	g.Rule("expr : expr + term", bin("+"))
	g.Rule("expr : expr - term", bin("-"))
	g.Rule("expr : term", nil)
	g.Rule("term : term * factor", bin("*"))
	g.Rule("term : term / factor", bin("/"))
	g.Rule("term : factor", nil)

	g.Rule("factor : - factor", func(v []any) any {
		return &Unary{Op: "-", X: v[1].(Node)}
	})
	g.Rule("factor : postfix", nil)

	g.Rule("postfix : postfix [ NUMBER ]", func(v []any) any {
		f := number(v[2])
		comp := int(f)
		if f != math.Trunc(f) {
			comp = -1 // validate() rejects out-of-range components
		}
		return &Index{Base: v[0].(Node), Comp: comp}
	})
	g.Rule("postfix : primary", nil)

	g.Rule("primary : NUMBER", func(v []any) any {
		return &Num{Value: number(v[0])}
	})
	g.Rule("primary : IDENT", func(v []any) any {
		return &Ref{Name: v[0].(*lalr.Token).Text}
	})
	g.Rule("primary : IDENT ( args )", func(v []any) any {
		return &Call{Fun: v[0].(*lalr.Token).Text, Args: v[2].([]Node)}
	})
	g.Rule("primary : ( rel )", func(v []any) any { return v[1] })

	// The paper's introduction sketches conditional expressions:
	// a = if (cond) then (x) else (y). Both branches are primaries, so
	// the usual written form parenthesizes them.
	g.Rule("primary : IF ( rel ) THEN primary ELSE primary", func(v []any) any {
		return &If{Cond: v[2].(Node), Then: v[5].(Node), Else: v[7].(Node)}
	})

	g.Rule("args : args , rel", func(v []any) any {
		return append(v[0].([]Node), v[2].(Node))
	})
	g.Rule("args : rel", func(v []any) any {
		return []Node{v[0].(Node)}
	})

	return g
}

// number reads a shifted NUMBER token's value. lex accepted the text
// only after strconv.ParseFloat did, so parsing it again cannot fail.
func number(v any) float64 {
	f, _ := strconv.ParseFloat(v.(*lalr.Token).Text, 64)
	return f
}

var (
	tableOnce sync.Once
	table     *lalr.Table
	tableErr  error
)

// parseTable builds (once) the language's LALR(1) parse table.
func parseTable() (*lalr.Table, error) {
	tableOnce.Do(func() {
		table, tableErr = lalr.Build(grammar())
		if tableErr == nil && len(table.Conflicts) > 0 {
			tableErr = fmt.Errorf("expr: grammar has %d conflicts", len(table.Conflicts))
		}
	})
	return table, tableErr
}

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
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("expr: empty expression")
	}
	v, err := tbl.Parse(toks)
	if err != nil {
		return nil, decorate(input, err)
	}
	p := v.(*Program)
	if err := validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// validate applies post-parse checks that the grammar alone cannot
// express (component indices must be small non-negative integers).
func validate(p *Program) error {
	var check func(n Node) error
	check = func(n Node) error {
		switch t := n.(type) {
		case *Index:
			if f := t.Comp; f < 0 || f > 3 {
				return fmt.Errorf("expr: component index %d out of range [0, 3]", t.Comp)
			}
			return check(t.Base)
		case *Unary:
			return check(t.X)
		case *Binary:
			if err := check(t.L); err != nil {
				return err
			}
			return check(t.R)
		case *Call:
			for _, a := range t.Args {
				if err := check(a); err != nil {
					return err
				}
			}
		case *If:
			for _, sub := range []Node{t.Cond, t.Then, t.Else} {
				if err := check(sub); err != nil {
					return err
				}
			}
		case *Num:
			if math.IsNaN(t.Value) || math.IsInf(t.Value, 0) {
				return fmt.Errorf("expr: non-finite constant")
			}
		}
		return nil
	}
	for _, s := range p.Stmts {
		if err := check(s.X); err != nil {
			return err
		}
	}
	return nil
}
