package dfg_test

import (
	"math"
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
