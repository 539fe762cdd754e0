// Package expr implements the framework's expression language front end:
// a hand-written lexer and an LALR(1) grammar (built with internal/lalr,
// our PLY equivalent) that turn user expression text like
//
//	du = grad3d(u, dims, x, y, z)
//	w_x = dw[1] - dv[2]
//	v_mag = sqrt(u*u + v*v + w*w)
//
// into a parse tree and then a dataflow network specification, applying
// the paper's constant pooling and limited common sub-expression
// elimination. Statements are either simple (a constant, a variable, or
// one filter invocation) or nested (filter invocations with
// sub-expressions as arguments); assignment statements name the value of
// their right side, and the last statement is the network output.
package expr

import (
	"fmt"
	"strings"
)

// Node is an expression parse-tree node.
type Node interface {
	// String renders the node as normalized expression text.
	String() string
}

// Num is a numeric literal.
type Num struct {
	Value float64
}

// String renders the literal.
func (n *Num) String() string { return trimFloat(n.Value) }

// Ref is a reference to an assigned name or a host-provided source array.
type Ref struct {
	Name string
}

// String renders the reference.
func (r *Ref) String() string { return r.Name }

// Call is a filter invocation, e.g. grad3d(u, dims, x, y, z).
type Call struct {
	Fun  string
	Args []Node
}

// String renders the invocation.
func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return c.Fun + "(" + strings.Join(args, ",") + ")"
}

// Index is the bracket syntax selecting a component of a
// multi-dimensional value, e.g. du[1].
type Index struct {
	Base Node
	Comp int
}

// String renders the selection.
func (i *Index) String() string { return fmt.Sprintf("%s[%d]", i.Base.String(), i.Comp) }

// Unary is a unary operation (only negation in the paper's grammar).
type Unary struct {
	Op string // "-"
	X  Node
}

// String renders the operation.
func (u *Unary) String() string { return "(" + u.Op + u.X.String() + ")" }

// Binary is a binary arithmetic operation.
type Binary struct {
	Op   string // "+", "-", "*", "/"
	L, R Node
}

// String renders the operation.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// If is a conditional expression: if (Cond) then (Then) else (Else),
// evaluated per element (the framework's expression language is a
// whole-array calculus, so both branches are computed and selected).
type If struct {
	Cond, Then, Else Node
}

// String renders the conditional in the paper's intro style.
func (f *If) String() string {
	return fmt.Sprintf("if (%s) then (%s) else (%s)", f.Cond.String(), f.Then.String(), f.Else.String())
}

// Stmt is one statement: an expression, optionally assigned to a name.
type Stmt struct {
	// Name is the assignment target ("" for a bare expression).
	Name string
	X    Node
}

// String renders the statement.
func (s *Stmt) String() string {
	if s.Name == "" {
		return s.X.String()
	}
	return s.Name + " = " + s.X.String()
}

// Program is a parsed expression program.
type Program struct {
	Stmts []*Stmt
	// What the network builder will add, counted from the tokens before
	// the parse: nodes is the number of AST nodes that each emit one
	// network node (every node but Ref), inputs the number of input
	// slots those nodes take (two a Binary, one a Unary or an Index,
	// three an If, one per argument a Call), refs the number of Refs,
	// and named the number of assignment statements, each an alias.
	nodes, inputs, refs, named int
}

// String renders the program, one statement per line.
func (p *Program) String() string {
	lines := make([]string, len(p.Stmts))
	for i, s := range p.Stmts {
		lines[i] = s.String()
	}
	return strings.Join(lines, "\n")
}

// trimFloat renders a float without superfluous digits.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
