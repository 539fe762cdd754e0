// Package lalr is a from-scratch LALR(1) parser generator and runtime,
// modelled on PLY (Python Lex-Yacc), the tool the paper builds its
// expression parser with. PLY in turn follows the classic yacc design:
// a grammar of string productions with semantic actions, LR(0) automaton
// construction, LALR(1) lookahead computation (the Dragon Book's
// spontaneous-generation/propagation algorithm), and a table-driven
// shift-reduce parser. Grammars are written unambiguous — the paper's
// expression grammar is stratified by precedence level — so there are no
// precedence declarations: every conflict fails Build.
//
// The generator is general-purpose: internal/expr defines the paper's
// expression grammar on top of it, and the package tests exercise it on
// classic grammars (nullable productions, LALR-but-not-SLR, conflict
// detection).
package lalr

import (
	"fmt"
	"strings"
)

// end names the reserved end-of-input terminal.
const end = "$end"

// epsilon-sentinel used internally for lookahead propagation.
const hash = "#"

// Prod is one grammar production LHS -> RHS with a semantic action.
type Prod struct {
	Lhs string
	Rhs []string
	// Action computes the production's semantic value from its
	// children's values (one per RHS symbol; terminals yield *Token).
	// env is the value the caller handed to Table.Parse: per-parse state
	// such as the arena a front end builds its tree in. A nil action
	// yields the first child's value (or nil if empty).
	Action func(env any, vals []any) any
}

// String renders the production in "lhs -> rhs" form.
func (p *Prod) String() string {
	if len(p.Rhs) == 0 {
		return p.Lhs + " -> <empty>"
	}
	return p.Lhs + " -> " + strings.Join(p.Rhs, " ")
}

// Grammar accumulates productions.
type Grammar struct {
	start string
	prods []*Prod
	errs  []error
}

// NewGrammar creates a grammar with the given start symbol.
func NewGrammar(start string) *Grammar {
	return &Grammar{start: start}
}

// Rule adds a production written as "lhs : sym sym ..." (or "lhs -> ...");
// an empty right side declares an epsilon production. The action receives
// parse's env and one value per RHS symbol.
func (g *Grammar) Rule(rule string, action func(env any, vals []any) any) {
	lhs, rhs, err := splitRule(rule)
	if err != nil {
		g.errs = append(g.errs, err)
		return
	}
	g.prods = append(g.prods, &Prod{Lhs: lhs, Rhs: rhs, Action: action})
}

// splitRule parses "lhs : a b c" / "lhs -> a b c".
func splitRule(rule string) (string, []string, error) {
	sep := ":"
	if strings.Contains(rule, "->") {
		sep = "->"
	}
	parts := strings.SplitN(rule, sep, 2)
	if len(parts) != 2 {
		return "", nil, fmt.Errorf("lalr: malformed rule %q (want \"lhs %s rhs\")", rule, sep)
	}
	lhs := strings.TrimSpace(parts[0])
	if lhs == "" || strings.ContainsAny(lhs, " \t") {
		return "", nil, fmt.Errorf("lalr: malformed rule %q: bad left-hand side", rule)
	}
	rhs := strings.Fields(parts[1])
	return lhs, rhs, nil
}

// compiled is the analyzed grammar: interned productions, symbol
// classification and FIRST sets.
type compiled struct {
	g        *Grammar
	prods    []*Prod // prods[0] is the augmented start production
	byLhs    map[string][]int
	nonterm  map[string]bool
	terms    map[string]bool
	nullable map[string]bool
	first    map[string]map[string]bool
}

// compile validates and analyzes the grammar.
func (g *Grammar) compile() (*compiled, error) {
	if len(g.errs) > 0 {
		return nil, g.errs[0]
	}
	if len(g.prods) == 0 {
		return nil, fmt.Errorf("lalr: grammar has no productions")
	}

	c := &compiled{
		g:       g,
		byLhs:   make(map[string][]int),
		nonterm: make(map[string]bool),
		terms:   make(map[string]bool),
	}
	// Augment: prods[0] = $accept -> start.
	c.prods = append([]*Prod{{Lhs: "$accept", Rhs: []string{g.start}}}, g.prods...)
	for _, p := range c.prods {
		c.nonterm[p.Lhs] = true
	}
	if !c.nonterm[g.start] {
		return nil, fmt.Errorf("lalr: start symbol %q has no productions", g.start)
	}
	for i, p := range c.prods {
		c.byLhs[p.Lhs] = append(c.byLhs[p.Lhs], i)
		for _, s := range p.Rhs {
			if s == end || s == hash {
				return nil, fmt.Errorf("lalr: reserved symbol %q used in %v", s, p)
			}
			if !c.nonterm[s] {
				c.terms[s] = true
			}
		}
	}
	c.terms[end] = true
	c.computeFirst()
	return c, nil
}
