package lalr

import (
	"fmt"
	"sort"
	"strings"
)

// Report renders a human-readable description of the compiled grammar
// and parse table, in the spirit of yacc's y.output / PLY's parser.out:
// the numbered productions, per-state kernel items with their actions,
// and any conflicts. It exists for grammar debugging and is pinned by
// tests so table construction stays explainable.
func (t *Table) Report() string {
	var b strings.Builder

	b.WriteString("Grammar\n\n")
	for i, p := range t.c.prods {
		fmt.Fprintf(&b, "Rule %-3d %s\n", i, p)
	}

	fmt.Fprintf(&b, "\nTerminals: %s\n", strings.Join(t.terms, " "))
	fmt.Fprintf(&b, "Nonterminals: %s\n", strings.Join(t.nonterms, " "))

	fmt.Fprintf(&b, "\nStates: %d\n", t.States())
	for s := range t.States() {
		fmt.Fprintf(&b, "\nstate %d\n", s)
		for id, a := range t.actRow(s) {
			term := t.terms[id]
			switch a.typ {
			case actShift:
				fmt.Fprintf(&b, "    %-12s shift, go to state %d\n", term, a.target)
			case actReduce, actUnit:
				fmt.Fprintf(&b, "    %-12s reduce using rule %d (%s)\n", term, a.target, t.c.prods[a.target])
			case actAccept:
				fmt.Fprintf(&b, "    %-12s accept\n", term)
			}
		}
		for id, target := range t.gtoRow(s) {
			if target > 0 {
				fmt.Fprintf(&b, "    %-12s go to state %d\n", t.nonterms[id], target)
			}
		}
	}

	if len(t.Conflicts) > 0 {
		fmt.Fprintf(&b, "\nConflicts: %d\n", len(t.Conflicts))
		for _, c := range t.Conflicts {
			fmt.Fprintf(&b, "    state %d on %q: %s (%s)\n", c.State, c.Terminal, c.Kind, c.Detail)
		}
	}
	return b.String()
}

// sortedKeys lists a set's members in name order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
