package lalr

import (
	"fmt"
	"sort"
	"strings"
)

// actType discriminates parse actions.
type actType int

const (
	actNone actType = iota
	actShift
	actReduce
	actAccept
)

// action is one ACTION table entry.
type action struct {
	typ    actType
	target int32 // shift: next state; reduce: production index
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
// range — so the ACTION and GOTO tables are dense rows indexed by state
// and symbol, and walking a row visits symbols sorted by name. A lexer
// emits the terminals' numbers (Term), so Parse hashes nothing. No goto
// enters the start state, so a GOTO entry of 0 means none.
type Table struct {
	c        *compiled
	terms    []string         // terminal names by number
	nonterms []string         // nonterminal names by number
	termID   map[string]int32 // terminal name -> number, for Term
	eof      int32            // the end of input's number
	lhs      []int32          // production index -> its left side's number
	act      [][]action       // act[state][terminal]; actNone where absent
	gto      [][]int32        // gto[state][nonterminal]; 0 where absent
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
func (t *Table) States() int { return len(t.act) }

// Build compiles the grammar into an LALR(1) parse table. Any conflict
// makes Build fail; the returned table (valid, with yacc's default
// resolutions applied: shift over reduce, the earlier of two reduces)
// accompanies the error so callers can inspect it.
func Build(g *Grammar) (*Table, error) {
	c, err := g.compile()
	if err != nil {
		return nil, err
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
	t.lhs = make([]int32, len(c.prods))
	for i, p := range c.prods {
		t.lhs[i] = int32(ntID[p.Lhs])
	}
	t.act = make([][]action, len(a.states))
	t.gto = make([][]int32, len(a.states))

	for si, st := range a.states {
		row := make([]action, len(t.terms))
		t.act[si] = row
		t.gto[si] = make([]int32, len(t.nonterms))

		// Shifts and gotos from the LR(0) transitions.
		for sym, target := range st.gotos {
			if c.nonterm[sym] {
				t.gto[si][ntID[sym]] = int32(target)
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
			red := action{typ: actReduce, target: int32(li.it.prod)}
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

	if len(t.Conflicts) > 0 {
		lines := make([]string, len(t.Conflicts))
		for i, cf := range t.Conflicts {
			lines[i] = fmt.Sprintf("state %d on %q: %s (%s)", cf.State, cf.Terminal, cf.Kind, cf.Detail)
		}
		return t, fmt.Errorf("lalr: %d conflict(s):\n  %s", len(lines), strings.Join(lines, "\n  "))
	}
	return t, nil
}
