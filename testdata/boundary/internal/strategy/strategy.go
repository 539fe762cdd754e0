package strategy

// ForName stands in for the variant parser.
func ForName(name string) (string, error) { return name, nil }

// Default is a planted bare call inside the parser's own package.
func Default() string {
	s, _ := ForName("fusion")
	return s
}
