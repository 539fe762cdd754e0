package serve

import (
	"fixture/internal/passes"
	"fixture/internal/strategy"
)

// Decode parses a request's names at the boundary.
func Decode() {
	strategy.ForName("vm")
	passes.ParseLevel("O2")
}
