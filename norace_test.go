//go:build !race

package dfg_test

// raceBuild reports whether the tests run under the race detector,
// whose instrumented build keeps fewer values on the stack.
const raceBuild = false
