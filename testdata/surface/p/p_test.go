package p

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }

func TestFields(t *testing.T) {
	if NewFields().tested != 2 {
		t.Fatal("tested not set")
	}
}
