package lalr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// actType discriminates parse actions.
type actType uint8

const (
	actNone actType = iota
	actShift
	actReduce
	// actUnit is a reduce by a unit rule: a nil action over a one-symbol
	// right side. Such a reduction leaves the value stack as it is and
	// only replaces the top state, so Parse follows a chain of them
	// without a loop iteration each.
	actUnit
	actAccept
)

// action is one ACTION table entry.
type action struct {
	typ    actType
	lhs    uint16 // reduce: the number of the production's left side
	target int32  // shift: next state; reduce: production index
}

// Conflict records a parse-table conflict.
type Conflict struct {
	State    int
	Terminal string
	Kind     string // "shift/reduce" or "reduce/reduce"
	Detail   string
}

// Table is a compiled LALR(1) parse table ready to drive Parse. Symbols
// are numbered in name order — terminals and nonterminals each their own
// range — so the ACTION and GOTO tables are flat arrays of dense rows,
// indexed state*width+symbol, and walking a row visits symbols sorted
// by name. A lexer emits the terminals' numbers (Term), so Parse hashes
// nothing; a reduce entry carries its left side, and each production's
// right-side length and action sit in arrays, so a reduce reads no
// *Prod. No goto enters the start state, so a GOTO entry of 0 means
// none.
type Table struct {
	c        *compiled
	terms    []string         // terminal names by number
	nonterms []string         // nonterminal names by number
	termID   map[string]int32 // terminal name -> number, for Term
	eof      int32            // the end of input's number
	act      []action         // act[state*len(terms)+terminal]; actNone where absent
	gto      []int32          // gto[state*len(nonterms)+nonterminal]; 0 where absent
	// Per production: its right side's length and its action.
	rhsLen  []int32
	actions []func(env any, vals []any) any
	// Conflicts lists every conflict encountered during construction.
	Conflicts []Conflict
}

// Term returns the number of the named terminal, the Sym a lexer gives
// its tokens.
func (t *Table) Term(name string) (int32, bool) {
	id, ok := t.termID[name]
	return id, ok
}

// States returns the number of automaton states.
func (t *Table) States() int { return len(t.act) / len(t.terms) }

// actRow and gtoRow return a state's ACTION and GOTO rows.
func (t *Table) actRow(s int) []action {
	return t.act[s*len(t.terms) : (s+1)*len(t.terms)]
}

func (t *Table) gtoRow(s int) []int32 {
	return t.gto[s*len(t.nonterms) : (s+1)*len(t.nonterms)]
}

// Build compiles the grammar into an LALR(1) parse table. Any conflict
// makes Build fail; the returned table (valid, with yacc's default
// resolutions applied: shift over reduce, the earlier of two reduces)
// accompanies the error so callers can inspect it.
func Build(g *Grammar) (*Table, error) {
	c, err := g.compile()
	if err != nil {
		return nil, err
	}
	if len(c.nonterm) > math.MaxUint16 {
		return nil, fmt.Errorf("lalr: %d nonterminals; a table numbers at most %d", len(c.nonterm), math.MaxUint16)
	}
	a := buildAutomaton(c)
	las := computeLookaheads(a)

	t := &Table{c: c, terms: sortedKeys(c.terms), nonterms: sortedKeys(c.nonterm)}
	t.termID = make(map[string]int32, len(t.terms))
	for id, name := range t.terms {
		t.termID[name] = int32(id)
	}
	t.eof = t.termID[end]
	ntID := make(map[string]int, len(t.nonterms))
	for id, name := range t.nonterms {
		ntID[name] = id
	}
	t.rhsLen = make([]int32, len(c.prods))
	t.actions = make([]func(any, []any) any, len(c.prods))
	for i, p := range c.prods {
		t.rhsLen[i], t.actions[i] = int32(len(p.Rhs)), p.Action
	}
	t.act = make([]action, len(a.states)*len(t.terms))
	t.gto = make([]int32, len(a.states)*len(t.nonterms))

	for si, st := range a.states {
		row, gto := t.actRow(si), t.gtoRow(si)

		// Shifts and gotos from the LR(0) transitions.
		for sym, target := range st.gotos {
			if c.nonterm[sym] {
				gto[ntID[sym]] = int32(target)
			} else {
				row[t.termID[sym]] = action{typ: actShift, target: int32(target)}
			}
		}

		// Reduces from the LR(1) closure of the kernel with its LALR
		// lookaheads (this also covers epsilon items, which are
		// non-kernel).
		var seed []laItem
		for _, k := range st.kernel {
			for la := range las[kernelRef{si, k}] {
				seed = append(seed, laItem{it: k, la: la})
			}
		}
		closed := c.closure1(seed)
		sort.Slice(closed, func(i, j int) bool {
			if closed[i].it.prod != closed[j].it.prod {
				return closed[i].it.prod < closed[j].it.prod
			}
			return closed[i].la < closed[j].la
		})
		for _, li := range closed {
			p := c.prods[li.it.prod]
			if li.it.dot != len(p.Rhs) {
				continue // not a reduce item
			}
			if li.it.prod == 0 {
				if li.la == end {
					row[t.termID[end]] = action{typ: actAccept}
				}
				continue
			}
			red := action{typ: actReduce, lhs: uint16(ntID[p.Lhs]), target: int32(li.it.prod)}
			cell := &row[t.termID[li.la]]
			switch cell.typ {
			case actNone:
				*cell = red
			case actShift:
				// shift/reduce: keep the shift (yacc's default).
				t.Conflicts = append(t.Conflicts, Conflict{State: si, Terminal: li.la, Kind: "shift/reduce",
					Detail: fmt.Sprintf("shift vs reduce %v", p)})
			case actReduce:
				// reduce/reduce: earlier production wins (yacc default).
				conf := Conflict{State: si, Terminal: li.la, Kind: "reduce/reduce",
					Detail: fmt.Sprintf("%v vs %v", c.prods[cell.target], p)}
				if red.target < cell.target {
					*cell = red
				}
				t.Conflicts = append(t.Conflicts, conf)
			case actAccept:
				// Accept is only on EOF for the start rule; ignore.
			}
		}
	}

	// Mark the unit rules' reduces, now that conflicts are resolved.
	for i, a := range t.act {
		if q := a.target; a.typ == actReduce && t.rhsLen[q] == 1 && t.actions[q] == nil {
			t.act[i].typ = actUnit
		}
	}

	if len(t.Conflicts) > 0 {
		lines := make([]string, len(t.Conflicts))
		for i, cf := range t.Conflicts {
			lines[i] = fmt.Sprintf("state %d on %q: %s (%s)", cf.State, cf.Terminal, cf.Kind, cf.Detail)
		}
		return t, fmt.Errorf("lalr: %d conflict(s):\n  %s", len(lines), strings.Join(lines, "\n  "))
	}
	return t, nil
}
