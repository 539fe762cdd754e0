// Package lalr is a from-scratch LALR(1) parser generator and runtime,
// modelled on PLY (Python Lex-Yacc), the tool the paper builds its
// expression parser with. PLY in turn follows the classic yacc design:
// a grammar of string productions with semantic actions, operator
// precedence declarations to resolve ambiguity, LR(0) automaton
// construction, LALR(1) lookahead computation (the Dragon Book's
// spontaneous-generation/propagation algorithm), and a table-driven
// shift-reduce parser.
//
// The generator is general-purpose: internal/expr defines the paper's
// expression grammar on top of it, and the package tests exercise it on
// classic grammars (ambiguous expression grammars resolved by
// precedence, nullable productions, conflict detection).
package lalr

import (
	"fmt"
	"strings"
)

// EOF is the reserved end-of-input terminal. Parse supplies it after the
// last token, and a ParseError at the end of input carries it.
const EOF = "$end"

// epsilon-sentinel used internally for lookahead propagation.
const hash = "#"

// Assoc is an operator associativity class.
type Assoc int

const (
	// AssocLeft resolves an equal-precedence shift/reduce conflict by
	// reducing (left-associative operators).
	AssocLeft Assoc = iota
	// AssocRight resolves by shifting (right-associative operators).
	AssocRight
	// AssocNonassoc makes the conflicting input a syntax error.
	AssocNonassoc
)

// prec is one terminal's precedence entry.
type prec struct {
	level int // higher binds tighter
	assoc Assoc
}

// Prod is one grammar production LHS -> RHS with a semantic action.
type Prod struct {
	Lhs string
	Rhs []string
	// Action computes the production's semantic value from its
	// children's values (one per RHS symbol; terminals yield *Token).
	// A nil action yields the first child's value (or nil if empty).
	Action func(vals []any) any
	// precTerm overrides the production's precedence (yacc's %prec).
	precTerm string
}

// String renders the production in "lhs -> rhs" form.
func (p *Prod) String() string {
	if len(p.Rhs) == 0 {
		return p.Lhs + " -> <empty>"
	}
	return p.Lhs + " -> " + strings.Join(p.Rhs, " ")
}

// Grammar accumulates productions and precedence declarations.
type Grammar struct {
	start     string
	prods     []*Prod
	precs     map[string]prec
	precLevel int
	errs      []error
}

// NewGrammar creates a grammar with the given start symbol.
func NewGrammar(start string) *Grammar {
	return &Grammar{start: start, precs: make(map[string]prec)}
}

// declarePrec registers one precedence level for the given terminals.
func (g *Grammar) declarePrec(a Assoc, terms []string) {
	g.precLevel++
	for _, t := range terms {
		if _, dup := g.precs[t]; dup {
			g.errs = append(g.errs, fmt.Errorf("lalr: terminal %q declared in two precedence levels", t))
			continue
		}
		g.precs[t] = prec{level: g.precLevel, assoc: a}
	}
}

// Left declares left-associative terminals at the next (tighter)
// precedence level, like yacc's %left.
func (g *Grammar) Left(terms ...string) { g.declarePrec(AssocLeft, terms) }

// Right declares right-associative terminals (%right).
func (g *Grammar) Right(terms ...string) { g.declarePrec(AssocRight, terms) }

// Nonassoc declares non-associative terminals (%nonassoc).
func (g *Grammar) Nonassoc(terms ...string) { g.declarePrec(AssocNonassoc, terms) }

// Rule adds a production written as "lhs : sym sym ..." (or "lhs -> ...");
// an empty right side declares an epsilon production. The action receives
// one value per RHS symbol.
func (g *Grammar) Rule(rule string, action func(vals []any) any) {
	g.RulePrec(rule, "", action)
}

// RulePrec is Rule with an explicit %prec terminal override.
func (g *Grammar) RulePrec(rule, precTerm string, action func(vals []any) any) {
	lhs, rhs, err := splitRule(rule)
	if err != nil {
		g.errs = append(g.errs, err)
		return
	}
	g.prods = append(g.prods, &Prod{Lhs: lhs, Rhs: rhs, Action: action, precTerm: precTerm})
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
			if s == EOF || s == hash {
				return nil, fmt.Errorf("lalr: reserved symbol %q used in %v", s, p)
			}
			if !c.nonterm[s] {
				c.terms[s] = true
			}
		}
	}
	c.terms[EOF] = true
	c.computeFirst()
	return c, nil
}
