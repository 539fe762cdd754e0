package passes

// ParseLevel stands in for the level parser.
func ParseLevel(name string) (int, error) { return len(name), nil }
