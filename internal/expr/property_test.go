package expr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dfg/internal/passes"
)

// randomNode builds a random well-formed expression tree over the given
// source names, with grad3d/decompose chains included.
func randomNode(rng *rand.Rand, depth int, sources []string) Node {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return &Num{Value: float64(rng.Intn(20)) / 4}
		default:
			return &Ref{Name: sources[rng.Intn(len(sources))]}
		}
	}
	switch rng.Intn(8) {
	case 0:
		return &Unary{Op: "-", X: randomNode(rng, depth-1, sources)}
	case 1:
		return &Call{Fun: "sqrt", Args: []Node{&Call{Fun: "abs", Args: []Node{randomNode(rng, depth-1, sources)}}}}
	case 2:
		// A gradient + component selection chain.
		return &Index{
			Base: &Call{Fun: "grad3d", Args: []Node{
				&Ref{Name: sources[rng.Intn(len(sources))]},
				&Ref{Name: "dims"}, &Ref{Name: "x"}, &Ref{Name: "y"}, &Ref{Name: "z"},
			}},
			Comp: rng.Intn(3),
		}
	case 3:
		return &Call{Fun: []string{"min", "max"}[rng.Intn(2)], Args: []Node{
			randomNode(rng, depth-1, sources), randomNode(rng, depth-1, sources),
		}}
	default:
		op := []string{"+", "-", "*", "/"}[rng.Intn(4)]
		return &Binary{Op: op, L: randomNode(rng, depth-1, sources), R: randomNode(rng, depth-1, sources)}
	}
}

// TestRandomProgramsRoundTrip: for random well-formed ASTs, rendering to
// text and re-parsing yields the identical normalized text, and the
// resulting network validates. This exercises the lexer, the LALR
// grammar, precedence/associativity and the network builder together.
func TestRandomProgramsRoundTrip(t *testing.T) {
	sources := []string{"u", "v", "w"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := &Program{}
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("s%d", i)
			prog.Stmts = append(prog.Stmts, &Stmt{Name: name, X: randomNode(rng, 3, sources)})
		}
		text := prog.String()
		parsed, err := Parse(text)
		if err != nil {
			t.Logf("seed %d: parse of rendered program failed: %v\n%s", seed, err, text)
			return false
		}
		if parsed.String() != text {
			t.Logf("seed %d: round trip drifted:\n%s\nvs\n%s", seed, text, parsed.String())
			return false
		}
		net, err := BuildNetworkWithDefinitions(parsed, nil)
		if err != nil {
			t.Logf("seed %d: build failed: %v", seed, err)
			return false
		}
		if _, err := passes.Paper.Run(net); err != nil {
			t.Logf("seed %d: Paper pipeline failed: %v", seed, err)
			return false
		}
		if err := net.Validate(); err != nil {
			t.Logf("seed %d: post-CSE validation failed: %v", seed, err)
			return false
		}
		if _, err := net.TopoOrder(); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestCSEIsIdempotent: a second elimination pass never finds anything.
func TestCSEIsIdempotent(t *testing.T) {
	sources := []string{"u", "v", "w"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := &Program{Stmts: []*Stmt{{Name: "out", X: randomNode(rng, 4, sources)}}}
		net, err := BuildNetworkWithDefinitions(prog, nil)
		if err != nil {
			return false
		}
		if _, err := passes.Paper.Run(net); err != nil {
			return false
		}
		again, err := passes.Paper.Run(net)
		return err == nil && again.NodesRemoved() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
