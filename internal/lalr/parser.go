package lalr

import (
	"fmt"
	"strings"
)

// Token is one lexeme handed to the parser. Sym is a grammar terminal's
// number (Table.Term); Text and the position fields feed error
// messages, and an action derives a token's semantic value (a NUMBER's
// float) from Text.
type Token struct {
	Text string
	Sym  int32
	Line int32 // 1-based line number
	Col  int32 // 1-based column
}

// EOF is the Sym of the end of input, which Parse supplies after the
// last token; a ParseError at the end of input carries it.
const EOF int32 = -1

// ParseError is a syntax error with location and expectation context.
type ParseError struct {
	Token    Token
	Expected []string // terminals acceptable in the failing state
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	where := e.Token.Text
	if e.Token.Sym == EOF {
		where = "end of input"
	} else {
		where = fmt.Sprintf("%q", where)
	}
	msg := fmt.Sprintf("syntax error at line %d, column %d: unexpected %s", e.Token.Line, e.Token.Col, where)
	if len(e.Expected) > 0 {
		msg += fmt.Sprintf(" (expected %s)", strings.Join(e.Expected, ", "))
	}
	return msg
}

// endOfInput is the lookahead after the last token. It is never
// shifted, so no action sees it.
var endOfInput = Token{Sym: EOF}

// Parse runs the table-driven shift-reduce parser over toks followed by
// an implicit end of input, and returns the start symbol's semantic
// value. Every action receives env, so per-parse state (an arena, a
// first error) needs no package variable and parses may run
// concurrently. A shifted terminal reaches its production's action as a
// *Token pointing into toks. An action's vals is a window of the
// parser's value stack: it is valid only during the call, and must not
// be retained or appended to.
func (t *Table) Parse(toks []Token, env any) (any, error) {
	states := make([]int32, 1, 64)
	values := make([]any, 1, 64)
	next := 0
	lookahead := func() (*Token, int32, error) {
		if next == len(toks) {
			return &endOfInput, t.eof, nil
		}
		tok := &toks[next]
		if uint32(tok.Sym) >= uint32(len(t.terms)) {
			return nil, 0, fmt.Errorf("lalr: lexer produced unknown terminal %d at line %d", tok.Sym, tok.Line)
		}
		return tok, tok.Sym, nil
	}
	tok, sym, err := lookahead()
	for err == nil {
		s := states[len(states)-1]
		act := t.act[s][sym]
		switch act.typ {
		case actShift:
			states = append(states, act.target)
			values = append(values, tok)
			next++
			tok, sym, err = lookahead()
		case actReduce:
			p := t.c.prods[act.target]
			base := len(values) - len(p.Rhs)
			var v any
			if p.Action != nil {
				v = p.Action(env, values[base:])
			} else if len(p.Rhs) > 0 {
				v = values[base]
			}
			states = states[:len(states)-len(p.Rhs)]
			top := states[len(states)-1]
			to := t.gto[top][t.lhs[act.target]]
			if to == 0 {
				return nil, fmt.Errorf("lalr: internal error: no goto from state %d on %q", top, p.Lhs)
			}
			states = append(states, to)
			values = append(values[:base], v)
		case actAccept:
			return values[len(values)-1], nil
		default:
			return nil, &ParseError{Token: *tok, Expected: t.expected(s)}
		}
	}
	return nil, err
}

// expected lists the terminals with actions in a state, sorted, for
// error messages.
func (t *Table) expected(state int32) []string {
	var out []string
	for id, a := range t.act[state] {
		if a.typ == actShift || a.typ == actReduce || a.typ == actAccept {
			out = append(out, t.terms[id])
		}
	}
	return out
}
