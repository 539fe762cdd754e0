// Package lalrtest is a reference driver for lalr's parse tables, for
// tests only: the canonical shift-reduce loop, one iteration per action,
// over nested ACTION and GOTO tables read back from a table's Report.
// It shares no code with lalr.Table.Parse — no unit chains followed in
// one step, no flat rows, no per-production arrays — so a differential
// test that runs both over the same tokens checks the driver against
// the automaton the report prints.
package lalrtest

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"dfg/internal/lalr"
)

// action is one report entry: "shift", "reduce", "accept" or "goto",
// and its target state or rule.
type action struct {
	kind   string
	target int
}

// rule is a production's left side and right-side length.
type rule struct {
	lhs string
	n   int
}

// Parser is the reference driver for one table.
type Parser struct {
	terms   []string            // terminal names by number
	rules   []rule              // by rule number
	act     []map[string]action // per state: terminal -> action
	order   [][]string          // per state: its terminals with actions, in report order
	gto     []map[string]int    // per state: nonterminal -> state
	actions []func(env any, vals []any) any
}

// New reads a parser from report (a lalr.Table's Report) and the
// grammar's actions by rule number (actions[0], the augmented start
// rule's, is never run).
func New(report string, actions []func(env any, vals []any) any) (*Parser, error) {
	p := &Parser{actions: actions}
	state := -1
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "Conflicts:":
			state = -2 // the conflict list closes the report
		case state == -2:
		case f[0] == "Rule" && len(f) >= 5:
			n := len(f) - 4
			if f[4] == "<empty>" {
				n = 0
			}
			p.rules = append(p.rules, rule{lhs: f[2], n: n})
		case f[0] == "Terminals:":
			p.terms = f[1:]
		case f[0] == "state" && len(f) == 2:
			state++
			p.act = append(p.act, map[string]action{})
			p.order = append(p.order, nil)
			p.gto = append(p.gto, map[string]int{})
		case state >= 0 && len(f) >= 2:
			// The target is the last number: f[5] of a shift, f[4] of
			// a reduce or a goto.
			num := func(i int) int {
				if i >= len(f) {
					return -1
				}
				v, err := strconv.Atoi(f[i])
				if err != nil {
					return -1
				}
				return v
			}
			var a action
			switch f[1] {
			case "shift,":
				a = action{"shift", num(5)}
			case "reduce":
				a = action{"reduce", num(4)}
			case "accept":
				a = action{"accept", 0}
			case "go":
				a = action{"goto", num(4)}
			}
			switch {
			case a.kind == "" || a.target < 0:
				return nil, fmt.Errorf("lalrtest: bad report line %q", line)
			case a.kind == "goto":
				p.gto[state][f[0]] = a.target
			default:
				p.act[state][f[0]] = a
				p.order[state] = append(p.order[state], f[0])
			}
		}
	}
	if len(p.act) == 0 || len(p.rules) != len(actions) {
		return nil, fmt.Errorf("lalrtest: report has %d states and %d rules for %d actions", len(p.act), len(p.rules), len(actions))
	}
	return p, nil
}

// Terms returns the terminal names by number, $end included.
func (p *Parser) Terms() []string { return p.terms }

// Parse is lalr.Table.Parse's contract, run one action per iteration.
func (p *Parser) Parse(toks []lalr.Token, env any) (any, error) {
	states := []int{0}
	values := []any{nil}
	eof := lalr.Token{Sym: lalr.EOF}
	for next := 0; ; {
		tok, name := &eof, "$end"
		if next < len(toks) {
			tok = &toks[next]
			if tok.Sym < 0 || int(tok.Sym) >= len(p.terms) {
				return nil, fmt.Errorf("lalr: lexer produced unknown terminal %d at line %d", tok.Sym, tok.Line)
			}
			name = p.terms[tok.Sym]
		}
		s := states[len(states)-1]
		a, ok := p.act[s][name]
		if !ok {
			return nil, &lalr.ParseError{Token: *tok, Expected: p.order[s]}
		}
		switch a.kind {
		case "shift":
			states = append(states, a.target)
			values = append(values, tok)
			next++
		case "reduce":
			r := p.rules[a.target]
			base := len(values) - r.n
			var v any
			if f := p.actions[a.target]; f != nil {
				v = f(env, values[base:])
			} else if r.n > 0 {
				v = values[base]
			}
			states = states[:len(states)-r.n]
			top := states[len(states)-1]
			to, ok := p.gto[top][r.lhs]
			if !ok {
				return nil, fmt.Errorf("lalr: internal error: no goto from state %d on %q", top, r.lhs)
			}
			states = append(states, to)
			values = append(values[:base], v)
		case "accept":
			return values[len(values)-1], nil
		}
	}
}

// Diff describes how one parse's outcome differs from another's, or
// returns "" when they agree: equal values (deeply, with every NaN
// equal to every other), and equal errors — a *lalr.ParseError by its
// Token and Expected list, any other error by its text.
func Diff(v1 any, err1 error, v2 any, err2 error) string {
	pe1, ok1 := err1.(*lalr.ParseError)
	pe2, ok2 := err2.(*lalr.ParseError)
	switch {
	case ok1 != ok2 || (err1 == nil) != (err2 == nil):
		return fmt.Sprintf("errors %v and %v", err1, err2)
	case ok1:
		if !reflect.DeepEqual(pe1.Token, pe2.Token) || !reflect.DeepEqual(pe1.Expected, pe2.Expected) {
			return fmt.Sprintf("parse errors at %+v expecting %q and at %+v expecting %q", pe1.Token, pe1.Expected, pe2.Token, pe2.Expected)
		}
	case err1 != nil:
		if err1.Error() != err2.Error() {
			return fmt.Sprintf("errors %q and %q", err1, err2)
		}
	}
	f1, isF1 := v1.(float64)
	f2, isF2 := v2.(float64)
	if isF1 && isF2 && math.IsNaN(f1) && math.IsNaN(f2) {
		return ""
	}
	if !reflect.DeepEqual(v1, v2) {
		return fmt.Sprintf("values %#v and %#v", v1, v2)
	}
	return ""
}
