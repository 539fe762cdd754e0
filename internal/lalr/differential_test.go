package lalr_test

import (
	"strconv"
	"testing"

	"dfg/internal/lalr"
	"dfg/internal/lalr/lalrtest"
)

// TestParseMatchesReference runs Table.Parse and the reference driver
// (lalrtest: the canonical loop, one iteration per reduction, over the
// nested tables the report prints) on every grammar the package's tests
// build, over every token sequence up to a length that keeps each
// grammar within 50 000 sequences (and 12 tokens), and requires the same value and the
// same error for each. Each position draws from the grammar's
// terminals and one number no terminal has.
func TestParseMatchesReference(t *testing.T) {
	for _, tg := range lalr.TestGrammars() {
		t.Run(tg.Name, func(t *testing.T) {
			tbl, _ := lalr.Build(tg.Build()) // conflicted tables are default-resolved and still run
			ref, err := lalrtest.New(tbl.Report(), lalr.ProdActions(tbl))
			if err != nil {
				t.Fatal(err)
			}
			var alphabet []lalr.Token
			for _, name := range ref.Terms() {
				if name == "$end" {
					continue
				}
				sym, _ := tbl.Term(name)
				alphabet = append(alphabet, lalr.Token{Text: name, Sym: sym, Line: 1})
			}
			alphabet = append(alphabet, lalr.Token{Text: "?", Sym: int32(len(ref.Terms())), Line: 1})
			for i := range alphabet {
				if alphabet[i].Text == "num" {
					alphabet[i].Text = "2" // the calculator's num action reads a digit
				}
			}
			maxLen, total := 0, 1
			for maxLen < 12 && total*len(alphabet) <= 50000 {
				maxLen++
				total *= len(alphabet)
			}
			toks := make([]lalr.Token, maxLen)
			sequences := 0
			var walk func(n int)
			walk = func(n int) {
				seq := toks[:n]
				sequences++
				var e1, e2 int
				v1, err1 := tbl.Parse(seq, &e1)
				v2, err2 := ref.Parse(seq, &e2)
				if d := lalrtest.Diff(v1, err1, v2, err2); d != "" || e1 != e2 {
					t.Fatalf("%s: Parse and the reference disagree: %s (env %d and %d)", describe(seq), d, e1, e2)
				}
				if n == maxLen {
					return
				}
				for _, a := range alphabet {
					toks[n] = a
					walk(n + 1)
				}
			}
			walk(0)
			t.Logf("%d sequences of up to %d tokens agree", sequences, maxLen)
		})
	}
}

// describe renders a token sequence for a failure message.
func describe(toks []lalr.Token) string {
	out := "tokens ["
	for i, tk := range toks {
		if i > 0 {
			out += " "
		}
		out += tk.Text + "#" + strconv.Itoa(int(tk.Sym))
	}
	return out + "]"
}
