package expr

import (
	"fmt"
	"strconv"
	"strings"

	"dfg/internal/lalr"
)

// Token symbol names used by the grammar.
const (
	symIdent  = "IDENT"
	symNumber = "NUMBER"
	symSep    = "SEP" // statement separator (newline or ';')
)

// keywords reserves the conditional syntax of the paper's introduction
// example: a = if (cond) then (x) else (y).
var keywords = map[string]string{
	"if":   "IF",
	"then": "THEN",
	"else": "ELSE",
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

// lex tokenizes expression text. Comment lines start with '#'.
// Runs of newlines/semicolons collapse into single SEP tokens, with
// leading and trailing separators dropped, so the grammar only ever sees
// separators between statements.
func lex(input string) ([]lalr.Token, error) {
	// The paper's expressions run about two bytes per token.
	toks := make([]lalr.Token, 0, len(input)/2+16)
	line, col := 1, 0
	i := 0
	n := len(input)

	// Every token's Text is a substring of the input and its Sym is a
	// keyword, a symbol constant or that same substring, so the token
	// slice is lex's only allocation.
	push := func(sym, text string, at int) {
		toks = append(toks, lalr.Token{Sym: sym, Text: text, Pos: at, Line: line, Col: col})
	}

	for i < n {
		ch := input[i]
		col++
		switch {
		case ch == '\n' || ch == ';':
			push(symSep, input[i:i+1], i)
			if ch == '\n' {
				line++
				col = 0
			}
			i++
		case ch == ' ' || ch == '\t' || ch == '\r':
			i++
		case ch == '#': // comment to end of line
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(ch):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			sym := symIdent // the grammar's actions read an IDENT's Text
			if kw, ok := keywords[word]; ok {
				sym = kw
			}
			push(sym, word, start)
			col += len(word) - 1
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
				return nil, &LexError{Line: line, Col: col, Msg: fmt.Sprintf("bad number %q", text)}
			}
			push(symNumber, text, start)
			col += len(text) - 1
		case ch == '>' || ch == '<' || ch == '=' || ch == '!':
			// Relational operators and assignment; two-character forms
			// (>=, <=, ==, !=) win over their one-character prefixes.
			if i+1 < n && input[i+1] == '=' {
				op := input[i : i+2]
				push(op, op, i)
				i += 2
				col++
				break
			}
			if ch == '!' {
				return nil, &LexError{Line: line, Col: col, Msg: "unexpected character '!' (did you mean !=?)"}
			}
			push(input[i:i+1], input[i:i+1], i)
			i++
		case strings.ContainsRune("+-*/()[],", rune(ch)):
			push(input[i:i+1], input[i:i+1], i)
			i++
		default:
			return nil, &LexError{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", ch)}
		}
	}

	return normalizeSeps(toks), nil
}

// normalizeSeps drops leading/trailing separators and collapses runs.
func normalizeSeps(toks []lalr.Token) []lalr.Token {
	out := toks[:0]
	for _, t := range toks {
		if t.Sym == symSep {
			if len(out) == 0 || out[len(out)-1].Sym == symSep {
				continue
			}
		}
		out = append(out, t)
	}
	for len(out) > 0 && out[len(out)-1].Sym == symSep {
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
