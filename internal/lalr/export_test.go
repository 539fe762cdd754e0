package lalr

// TestGrammars lists every grammar the package's tests build, by name.
var TestGrammars = testGrammars

// ProdActions returns the table's grammar actions by rule number, the
// augmented start rule's (nil) first.
func ProdActions(t *Table) []func(env any, vals []any) any {
	out := make([]func(any, []any) any, len(t.c.prods))
	for i, p := range t.c.prods {
		out[i] = p.Action
	}
	return out
}
