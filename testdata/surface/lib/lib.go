// Package lib is a fixture for the exported-surface scan.
package lib

// Used has a caller in main.
func Used() { helper() }

// OnlyTested is the planted export that only a test calls.
func OnlyTested() {}

// Reached is called only from libtest, which still counts as a caller.
func Reached() {}

func helper() {}

// T's String satisfies fmt.Stringer, so it needs no caller here.
type T struct{}

func (T) String() string { return "" }
