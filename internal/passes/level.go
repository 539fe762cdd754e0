package passes

import "fmt"

// Level selects an optimisation pipeline by name. The zero value is the
// Paper level — the exact reproduction of the paper's front end — so
// every existing call site keeps its behaviour.
type Level int

const (
	// LevelPaper runs only the paper's own optimisations: constant
	// pooling and order-sensitive CSE. All table and figure harnesses
	// pin this level.
	LevelPaper Level = iota
	// LevelO2 adds constant folding, algebraic identity simplification,
	// commutativity-normalised CSE, decompose-forwarding and dead-node
	// elimination. Output is bit-identical to LevelPaper (any NaN for a
	// NaN) under every strategy, with fewer kernel executions.
	LevelO2
)

// String names the level as accepted by ParseLevel.
func (l Level) String() string {
	switch l {
	case LevelPaper:
		return "paper"
	case LevelO2:
		return "O2"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel maps a user-facing level name to a Level. The empty string
// means the Paper level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "paper", "Paper":
		return LevelPaper, nil
	case "o2", "O2":
		return LevelO2, nil
	default:
		return LevelPaper, fmt.Errorf("passes: unknown optimisation level %q (want \"paper\" or \"O2\")", s)
	}
}

// ForLevel returns the pipeline a level selects.
func ForLevel(l Level) *Pipeline {
	if l == LevelO2 {
		return O2
	}
	return Paper
}

// Paper reproduces the paper's front end exactly: constant pooling then
// the order-sensitive CSE, nothing else. Networks it produces are
// byte-identical (in JSON form) to the historical expr.Compile output.
var Paper = New("paper", ElimPasses(LevelPaper)...)

// O2 is the full optimising pipeline. The shared canonicalisation front
// (ConstPool+CSE) first, then folding and identity rewrites, a
// commutativity-aware CSE round to merge what normalisation exposed,
// decompose-forwarding of gradients into single-axis stencils, and
// finally dead-node elimination to drop everything orphaned by the
// rewrites.
var O2 = New("O2", append(ElimPasses(LevelPaper),
	ConstFold(),
	Algebraic(),
	CSECommute(),
	ForwardDecompose(),
	DCE(),
)...)

// Names lists every distinct pass name across the predefined pipelines,
// in pipeline order — the label set for per-pass metrics.
func Names() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range []*Pipeline{Paper, O2} {
		for _, pass := range p.Passes() {
			if !seen[pass.Name()] {
				seen[pass.Name()] = true
				out = append(out, pass.Name())
			}
		}
	}
	return out
}
