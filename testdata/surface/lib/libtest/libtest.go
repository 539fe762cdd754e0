// Package libtest is exempt from the scan because its path ends in "test".
package libtest

import "fixture/lib"

// Helper has no caller, and needs none.
func Helper() { lib.Reached() }
