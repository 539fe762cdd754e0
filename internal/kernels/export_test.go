package kernels

// The lane helpers, for the tests of the package's kernels as the
// executor launches them (package kernels_test).
var (
	EachDispatch = eachDispatch
	Window       = window
	SameBits     = sameBits
	LaneValues   = laneValues
)
