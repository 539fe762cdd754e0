package compile

import (
	p "fixture/internal/passes"
	"fixture/internal/strategy"
)

// Plan is a planted call below the boundary: it parses names itself.
func Plan() {
	strategy.ForName("vm")
	p.ParseLevel("O2")
}
