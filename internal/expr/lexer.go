package expr

import (
	"fmt"
	"strconv"
	"strings"

	"dfg/internal/lalr"
)

// symbols holds the terminal numbers lex gives its tokens, read from the
// parse table once it is built.
type symbols struct {
	ident, number, sep int32
	// The conditional syntax of the paper's introduction example:
	// a = if (cond) then (x) else (y).
	kwIf, kwThen, kwElse int32
	// One-character operators, and the two-character ones ending in
	// '=', by their first byte.
	op, opEq [128]int32
}

// readSymbols numbers every terminal lex emits.
func readSymbols(tbl *lalr.Table) (s symbols, err error) {
	term := func(name string) int32 {
		id, ok := tbl.Term(name)
		if !ok && err == nil {
			err = fmt.Errorf("expr: grammar has no terminal %q", name)
		}
		return id
	}
	s.ident, s.number, s.sep = term("IDENT"), term("NUMBER"), term("SEP") // SEP: a newline or ';'
	s.kwIf, s.kwThen, s.kwElse = term("IF"), term("THEN"), term("ELSE")
	for _, c := range "+-*/()[],<>=" {
		s.op[c] = term(string(c))
	}
	for _, c := range "<>=!" {
		s.opEq[c] = term(string(c) + "=")
	}
	return s, err
}

// LexError is a tokenization error with location.
type LexError struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *LexError) Error() string {
	return fmt.Sprintf("lex error at line %d, column %d: %s", e.Line, e.Col, e.Msg)
}

// lex tokenizes expression text into toks' storage (its length is
// ignored), growing it when short. Comment lines start with '#'. Runs of newlines/semicolons collapse into single SEP
// tokens, with leading and trailing separators dropped, so the grammar
// only ever sees separators between statements.
func lex(input string, toks []lalr.Token) ([]lalr.Token, error) {
	if _, err := parseTable(); err != nil {
		return nil, err
	}
	// The paper's expressions run about two bytes per token.
	if want := len(input)/2 + 16; cap(toks) < want {
		toks = make([]lalr.Token, 0, want)
	}
	toks = toks[:0]
	line, col := int32(1), int32(0)
	i := 0
	n := len(input)

	// Every token's Text is a substring of the input and its Sym a
	// number, so growing toks is lex's only allocation.
	push := func(sym int32, text string) {
		toks = append(toks, lalr.Token{Text: text, Sym: sym, Line: line, Col: col})
	}

	for i < n {
		ch := input[i]
		col++
		switch {
		case ch == '\n' || ch == ';':
			push(syms.sep, input[i:i+1])
			if ch == '\n' {
				line++
				col = 0
			}
			i++
		case ch == ' ' || ch == '\t' || ch == '\r':
			i++
		case ch == '#': // comment to end of line
			start := i
			for i < n && input[i] != '\n' {
				i++
			}
			col += int32(i-start) - 1
		case isIdentStart(ch):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			sym := syms.ident // the grammar's actions read an IDENT's Text
			switch word {
			case "if":
				sym = syms.kwIf
			case "then":
				sym = syms.kwThen
			case "else":
				sym = syms.kwElse
			}
			push(sym, word)
			col += int32(len(word)) - 1
		case ch >= '0' && ch <= '9' || ch == '.':
			start := i
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.') {
				i++
			}
			// Exponent part.
			if i < n && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < n && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < n && input[j] >= '0' && input[j] <= '9' {
					i = j
					for i < n && input[i] >= '0' && input[i] <= '9' {
						i++
					}
				}
			}
			text := input[start:i]
			// The grammar's actions parse the value again from Text.
			if _, err := strconv.ParseFloat(text, 64); err != nil {
				return nil, &LexError{Line: int(line), Col: int(col), Msg: fmt.Sprintf("bad number %q", text)}
			}
			push(syms.number, text)
			col += int32(len(text)) - 1
		case ch == '>' || ch == '<' || ch == '=' || ch == '!':
			// Relational operators and assignment; two-character forms
			// (>=, <=, ==, !=) win over their one-character prefixes.
			if i+1 < n && input[i+1] == '=' {
				push(syms.opEq[ch], input[i:i+2])
				i += 2
				col++
				break
			}
			if ch == '!' {
				return nil, &LexError{Line: int(line), Col: int(col), Msg: "unexpected character '!' (did you mean !=?)"}
			}
			push(syms.op[ch], input[i:i+1])
			i++
		case strings.ContainsRune("+-*/()[],", rune(ch)):
			push(syms.op[ch], input[i:i+1])
			i++
		default:
			return nil, &LexError{Line: int(line), Col: int(col), Msg: fmt.Sprintf("unexpected character %q", ch)}
		}
	}

	return normalizeSeps(toks), nil
}

// normalizeSeps drops leading/trailing separators and collapses runs.
func normalizeSeps(toks []lalr.Token) []lalr.Token {
	out := toks[:0]
	for _, t := range toks {
		if t.Sym == syms.sep {
			if len(out) == 0 || out[len(out)-1].Sym == syms.sep {
				continue
			}
		}
		out = append(out, t)
	}
	for len(out) > 0 && out[len(out)-1].Sym == syms.sep {
		out = out[:len(out)-1]
	}
	return out
}

func isIdentStart(ch byte) bool {
	return ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch == '_'
}

func isIdentPart(ch byte) bool {
	return isIdentStart(ch) || ch >= '0' && ch <= '9'
}
