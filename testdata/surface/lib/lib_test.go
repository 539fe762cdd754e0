package lib

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }
