package lalr

import (
	"fmt"
	"strings"
)

// Token is one lexeme handed to the parser. Sym is a grammar terminal's
// number (Table.Term); Text and the position fields feed error
// messages, and an action reads a token's semantic value from Text, or
// from Num for a token the lexer already converted.
type Token struct {
	Text string
	Num  float64 // the value a lexer scanned for a numeric token; Parse never reads it
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
//
// After a reduce's goto, Parse follows the chain of unit reductions
// (actUnit) the new state takes on the same lookahead. Each pops the one
// state the goto pushed and goes to from the same state below, so the
// chain only rewrites the top state and ends where the canonical loop,
// one iteration per reduction, would.
func (t *Table) Parse(toks []Token, env any) (any, error) {
	states := make([]int32, 1, 64)
	values := make([]any, 1, 64)
	nt, nn := int32(len(t.terms)), int32(len(t.nonterms))
	next := 0
	lookahead := func() (*Token, int32, error) {
		if next == len(toks) {
			return &endOfInput, t.eof, nil
		}
		tok := &toks[next]
		if uint32(tok.Sym) >= uint32(nt) {
			return nil, 0, fmt.Errorf("lalr: lexer produced unknown terminal %d at line %d", tok.Sym, tok.Line)
		}
		return tok, tok.Sym, nil
	}
	tok, sym, err := lookahead()
	s := int32(0) // the top state
	for err == nil {
		act := t.act[s*nt+sym]
		switch act.typ {
		case actShift:
			s = act.target
			states = append(states, s)
			values = append(values, tok)
			next++
			tok, sym, err = lookahead()
		case actReduce, actUnit:
			q := act.target
			n := int(t.rhsLen[q])
			base := len(values) - n
			var v any
			if f := t.actions[q]; f != nil {
				v = f(env, values[base:])
			} else if n > 0 {
				v = values[base]
			}
			states = states[:len(states)-n]
			top := states[len(states)-1]
			lhs := act.lhs
			for {
				s = t.gto[top*nn+int32(lhs)]
				a := t.act[s*nt+sym]
				if a.typ != actUnit {
					break
				}
				lhs = a.lhs
			}
			if s == 0 {
				return nil, fmt.Errorf("lalr: internal error: no goto from state %d on %q", top, t.nonterms[lhs])
			}
			states = append(states, s)
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
	for id, a := range t.actRow(int(state)) {
		if a.typ != actNone {
			out = append(out, t.terms[id])
		}
	}
	return out
}
