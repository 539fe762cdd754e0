package dfg_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dfg"
	"dfg/internal/passes"
	"dfg/internal/strategy"
)

// collidingA and collidingB are normal floats, differing in their first
// two words, that a four-lane 64-bit FNV-1a content hash maps to the
// same value (found by lattice reduction). A residency check that trusts
// a hash serves a warm evaluation of B with A's values.
var (
	collidingA = []float32{-1.4349444e-15, 2, 3, 4, 5, 6, 7, 8}
	collidingB = []float32{0.100975215, -1.6227407e+32, 3, 4, 5, 6, 7, 8}
)

// TestWarmEvalAnswersNewBitsAfterCollision: a warm Prepared of one text
// ("Prepared") and one of two texts ("PreparedBatch"), each on its own
// engine and evaluated on A and then on B, answer B with B's bits under
// every strategy, streaming at two slabs. tiered@1 routes the 8 elements
// to the device; tiered alone routes them to the VM.
func TestWarmEvalAnswersNewBitsAfterCollision(t *testing.T) {
	if math.Float32bits(collidingA[0]) != 0xa6cecc1b || math.Float32bits(collidingB[1]) != 0xf50002fd {
		t.Fatal("the A/B pair did not parse to its committed bit patterns")
	}
	const n = 8
	times2 := func(v []float32) []float32 {
		w := make([]float32, len(v))
		for i, x := range v {
			w[i] = x * 2
		}
		return w
	}
	type handle struct {
		eval  func(in []float32) ([][]float32, error)
		close func()
	}
	handles := map[string]func(eng *dfg.Engine) (handle, error){
		"Prepared": func(eng *dfg.Engine) (handle, error) {
			pr, err := eng.Prepare("r = a * 1")
			if err != nil {
				return handle{}, err
			}
			return handle{func(in []float32) ([][]float32, error) {
				res, err := pr.Eval(n, map[string][]float32{"a": in})
				if err != nil {
					return nil, err
				}
				return [][]float32{res.Data}, nil
			}, pr.Close}, nil
		},
		"PreparedBatch": func(eng *dfg.Engine) (handle, error) {
			pb, err := eng.Prepare("r = a * 1", "r = a * 2")
			if err != nil {
				return handle{}, err
			}
			return handle{func(in []float32) ([][]float32, error) {
				res, err := pb.Eval(n, map[string][]float32{"a": in})
				if err != nil {
					return nil, err
				}
				return [][]float32{res.Members[0].Data, res.Members[1].Data}, nil
			}, pb.Close}, nil
		},
	}
	strats := []strategy.Strategy{{Kind: strategy.Streaming, Tiles: 2}}
	for _, name := range []string{"fusion", "staged", "roundtrip", "vm", "tiered", "tiered@1"} {
		s, err := strategy.ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		strats = append(strats, s)
	}
	for _, strat := range strats {
		for kind, open := range handles {
			t.Run(strat.String()+"/"+kind, func(t *testing.T) {
				eng, err := dfg.New(dfg.Config{Device: dfg.CPU})
				if err != nil {
					t.Fatal(err)
				}
				h, err := open(eng.View(passes.LevelPaper, strat))
				if err != nil {
					t.Fatal(err)
				}
				defer h.close()
				for _, in := range [][]float32{collidingA, collidingB} {
					outs, err := h.eval(in)
					if err != nil {
						t.Fatal(err)
					}
					for m, want := range [][]float32{in, times2(in)}[:len(outs)] {
						for i := range want {
							if g := math.Float32bits(outs[m][i]); g != math.Float32bits(want[i]) {
								t.Fatalf("member %d, element %d: %08x, want %08x", m, i, g, math.Float32bits(want[i]))
							}
						}
					}
				}
			})
		}
	}
}

// outputs returns a result's answers: one per member of a merged handle,
// else its one field.
func outputs(res *dfg.Result) [][]float32 {
	if len(res.Members) == 0 {
		return [][]float32{res.Data}
	}
	out := make([][]float32, len(res.Members))
	for i, m := range res.Members {
		out[i] = m.Data
	}
	return out
}

// sameOutputs fails the test unless got and want hold the same bits.
func sameOutputs(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for m := range want {
		if len(got[m]) != len(want[m]) {
			t.Fatalf("%s: member %d holds %d values, want %d", what, m, len(got[m]), len(want[m]))
		}
		for i := range want[m] {
			if g, w := math.Float32bits(got[m][i]), math.Float32bits(want[m][i]); g != w {
				t.Fatalf("%s: member %d, element %d: %08x, want %08x", what, m, i, g, w)
			}
		}
	}
}

// aliasTexts are the handles the aliasing tests open: one text, and two
// merged into one handle.
var aliasTexts = [][]string{{dfg.QCriterionExpr}, {dfg.QCriterionExpr, dfg.VorticityMagnitudeExpr}}

// TestWarmEvalAnswersRewrittenArrays: a resident slot binds the caller's
// array only while an evaluation runs, so an array rewritten in place
// after Eval returns is answered with its new bits by the next warm
// evaluation — under fusion, staged and streaming@3, for one text and a
// merged handle — and the first answer, which is no input array, keeps
// its bits.
func TestWarmEvalAnswersRewrittenArrays(t *testing.T) {
	m, err := dfg.NewUniformMesh(dfg.Dims{NX: 9, NY: 7, NZ: 6}, 0.1, 0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	f := dfg.GenerateRT(m, 3)
	strats := []strategy.Strategy{{Kind: strategy.Fusion}, {Kind: strategy.Staged}, {Kind: strategy.Streaming, Tiles: 3}}
	for _, strat := range strats {
		for _, texts := range aliasTexts {
			t.Run(fmt.Sprint(strat, "/", len(texts)), func(t *testing.T) {
				fields := map[string][]float32{"u": slices.Clone(f.U), "v": slices.Clone(f.V), "w": slices.Clone(f.W)}
				// want answers each text one-shot, on an engine of its own.
				want := func() [][]float32 {
					var out [][]float32
					for _, text := range texts {
						eng, err := dfg.New(dfg.Config{Device: dfg.CPU})
						if err != nil {
							t.Fatal(err)
						}
						res, err := eng.View(passes.LevelPaper, strat).EvalOnMesh(text, m, fields)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, res.Data)
					}
					return out
				}
				eng, err := dfg.New(dfg.Config{Device: dfg.CPU})
				if err != nil {
					t.Fatal(err)
				}
				pr, err := eng.View(passes.LevelPaper, strat).Prepare(texts...)
				if err != nil {
					t.Fatal(err)
				}
				defer pr.Close()
				res, err := pr.EvalMesh(m, fields)
				if err != nil {
					t.Fatal(err)
				}
				first, wantFirst := outputs(res), want()
				sameOutputs(t, "before the rewrite", first, wantFirst)
				for _, name := range []string{"u", "v", "w"} {
					for i, x := range fields[name] {
						fields[name][i] = -0.5*x + float32(i%5)
					}
				}
				res, err = pr.EvalMesh(m, fields)
				if err != nil {
					t.Fatal(err)
				}
				sameOutputs(t, "after the rewrite", outputs(res), want())
				sameOutputs(t, "the first answer after the rewrite", first, wantFirst)
			})
		}
	}
}

// TestAliasedInputs: one backing array bound under two names (u and v)
// answers bit for bit what separate copies of it answer, on a warm
// handle of one text and of two merged, under every strategy.
func TestAliasedInputs(t *testing.T) {
	m, err := dfg.NewUniformMesh(dfg.Dims{NX: 8, NY: 6, NZ: 7}, 0.1, 0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	f := dfg.GenerateRT(m, 4)
	shared := map[string][]float32{"u": f.U, "v": f.U, "w": f.W}
	copies := map[string][]float32{"u": slices.Clone(f.U), "v": slices.Clone(f.U), "w": slices.Clone(f.W)}
	strats := []strategy.Strategy{{Kind: strategy.Streaming, Tiles: 3}}
	for _, name := range []string{"fusion", "staged", "roundtrip", "vm"} {
		s, err := strategy.ForName(name)
		if err != nil {
			t.Fatal(err)
		}
		strats = append(strats, s)
	}
	for _, strat := range strats {
		for _, texts := range aliasTexts {
			t.Run(fmt.Sprint(strat, "/", len(texts)), func(t *testing.T) {
				answers := func(fields map[string][]float32) [][][]float32 {
					eng, err := dfg.New(dfg.Config{Device: dfg.CPU})
					if err != nil {
						t.Fatal(err)
					}
					pr, err := eng.View(passes.LevelPaper, strat).Prepare(texts...)
					if err != nil {
						t.Fatal(err)
					}
					defer pr.Close()
					var out [][][]float32
					for range 2 { // cold, then warm
						res, err := pr.EvalMesh(m, fields)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, outputs(res))
					}
					return out
				}
				got, want := answers(shared), answers(copies)
				for i := range want {
					sameOutputs(t, fmt.Sprint("eval ", i), got[i], want[i])
				}
			})
		}
	}
}
