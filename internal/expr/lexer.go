package expr

import (
	"fmt"
	"strconv"
	"unicode/utf8"

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
	// '=', by their first byte; single marks the one-character
	// operators no two-character one starts with.
	op, opEq [128]int32
	single   [128]bool
	// class holds each terminal's class, by number, for arena.size.
	class []uint8
}

// The token classes arena.size counts by.
const (
	clsOther  uint8 = iota
	clsSep          // SEP
	clsIdent        // IDENT
	clsNumber       // NUMBER
	clsAssign       // '='
	clsOpen         // '('
	clsIndex        // '['
	clsClose        // ')' and ']', which end an operand as IDENT and NUMBER do
	clsIf           // IF
	clsMinus        // '-', binary or unary
	clsBinary       // an operator that always makes a Binary
	clsComma        // ',' between two arguments of a Call
)

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
	for _, c := range "+-*/()[]," {
		s.single[c] = true
	}
	for _, c := range "<>=!" {
		s.opEq[c] = term(string(c) + "=")
	}
	// Every terminal lex emits has a class, so class covers each Sym.
	classes := map[int32]uint8{s.sep: clsSep, s.ident: clsIdent, s.number: clsNumber, s.op['=']: clsAssign,
		s.op['(']: clsOpen, s.op['[']: clsIndex, s.op[')']: clsClose, s.op[']']: clsClose, s.kwIf: clsIf, s.op['-']: clsMinus,
		s.kwThen: clsOther, s.kwElse: clsOther, s.op[',']: clsComma}
	for _, b := range []int32{s.op['+'], s.op['*'], s.op['/'], s.op['<'], s.op['>'], s.opEq['<'], s.opEq['>'], s.opEq['='], s.opEq['!']} {
		classes[b] = clsBinary
	}
	var top int32
	for sym := range classes {
		top = max(top, sym)
	}
	s.class = make([]uint8, top+1)
	for sym, c := range classes {
		s.class[sym] = c
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
// ignored), growing it when short. Comment lines start with '#'. Runs of
// newlines/semicolons collapse into single SEP tokens as they are
// scanned, with leading and trailing separators dropped, so the grammar
// only ever sees separators between statements. A NUMBER is converted
// once, here, and carries its value in Num.
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
	for i < n {
		ch := input[i]
		col++
		var tok lalr.Token
		switch {
		case ch == '\n' || ch == ';':
			if len(toks) > 0 && toks[len(toks)-1].Sym != syms.sep {
				tok = lalr.Token{Text: input[i : i+1], Sym: syms.sep, Line: line, Col: col}
			}
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
			tok = lalr.Token{Text: word, Sym: sym, Line: line, Col: col}
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
			f, ok := decimal(text)
			if !ok {
				var err error
				if f, err = strconv.ParseFloat(text, 64); err != nil {
					return nil, &LexError{Line: int(line), Col: int(col), Msg: fmt.Sprintf("bad number %q", text)}
				}
			}
			tok = lalr.Token{Text: text, Num: f, Sym: syms.number, Line: line, Col: col}
			col += int32(len(text)) - 1
		case ch == '>' || ch == '<' || ch == '=' || ch == '!':
			// Relational operators and assignment; two-character forms
			// (>=, <=, ==, !=) win over their one-character prefixes.
			if i+1 < n && input[i+1] == '=' {
				tok = lalr.Token{Text: input[i : i+2], Sym: syms.opEq[ch], Line: line, Col: col}
				i += 2
				col++
				break
			}
			if ch == '!' {
				return nil, &LexError{Line: int(line), Col: int(col), Msg: "unexpected character '!' (did you mean !=?)"}
			}
			tok = lalr.Token{Text: input[i : i+1], Sym: syms.op[ch], Line: line, Col: col}
			i++
		case ch < utf8.RuneSelf && syms.single[ch]:
			tok = lalr.Token{Text: input[i : i+1], Sym: syms.op[ch], Line: line, Col: col}
			i++
		default:
			return nil, &LexError{Line: int(line), Col: int(col), Msg: fmt.Sprintf("unexpected character %q", ch)}
		}
		if tok.Text != "" {
			toks = append(toks, tok)
		}
	}
	if len(toks) > 0 && toks[len(toks)-1].Sym == syms.sep {
		toks = toks[:len(toks)-1]
	}
	return toks, nil
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// decimal converts the common numeral — at most 15 digits, at most one
// point, no exponent — to the float64 strconv.ParseFloat returns for
// it: the digits form an integer below 2^53 and the divisor is a power
// of ten below 2^53, both exact, so their one division rounds correctly
// (Clinger's fast path, the one ParseFloat itself takes for them). It
// reports false for any other text, which lex hands to ParseFloat.
func decimal(text string) (float64, bool) {
	var m uint64
	digits, frac, point := 0, 0, false
	for i := 0; i < len(text); i++ {
		switch c := text[i]; {
		case c >= '0' && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
			if point {
				frac++
			}
		case c == '.' && !point:
			point = true
		default:
			return 0, false
		}
	}
	if digits == 0 || digits >= len(pow10) {
		return 0, false
	}
	return float64(m) / pow10[frac], true
}

func isIdentStart(ch byte) bool {
	return ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch == '_'
}

func isIdentPart(ch byte) bool {
	return isIdentStart(ch) || ch >= '0' && ch <= '9'
}
