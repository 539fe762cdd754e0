package expr

import (
	"errors"
	"fmt"
	"strings"

	"dfg/internal/lalr"
)

// SyntaxError decorates a parse error with the offending source line and
// a caret, so host-application users see where their expression broke:
//
//	syntax error at line 2, column 14: unexpected ")" (expected ...)
//	    w_x = dw[1] - )
//	                  ^
type SyntaxError struct {
	Line, Col int
	Excerpt   string // the offending source line
	Inner     error  // the underlying *lalr.ParseError
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	var b strings.Builder
	b.WriteString(e.Inner.Error())
	if e.Excerpt != "" {
		fmt.Fprintf(&b, "\n    %s\n", e.Excerpt)
		col := e.Col
		if col < 1 {
			col = 1
		}
		if col > len(e.Excerpt)+1 {
			col = len(e.Excerpt) + 1
		}
		b.WriteString("    " + strings.Repeat(" ", col-1) + "^")
	}
	return b.String()
}

// Unwrap exposes the underlying parse error for errors.As.
func (e *SyntaxError) Unwrap() error { return e.Inner }

// decorate wraps parser errors with source context. Non-parse errors
// pass through unchanged.
func decorate(input string, err error) error {
	var pe *lalr.ParseError
	if !errors.As(err, &pe) {
		return err
	}
	line := int(pe.Token.Line)
	col := int(pe.Token.Col)
	if pe.Token.Sym == lalr.EOF {
		// Point one past the end of the last non-empty line.
		lines := strings.Split(input, "\n")
		for i := len(lines) - 1; i >= 0; i-- {
			if strings.TrimSpace(lines[i]) != "" {
				line = i + 1
				col = len(lines[i]) + 1
				break
			}
		}
	}
	excerpt := ""
	if lines := strings.Split(input, "\n"); line >= 1 && line <= len(lines) {
		excerpt = lines[line-1]
	}
	return &SyntaxError{Line: line, Col: col, Excerpt: excerpt, Inner: pe}
}
