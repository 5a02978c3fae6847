package p

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }
