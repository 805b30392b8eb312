package deadcodetest

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
}
