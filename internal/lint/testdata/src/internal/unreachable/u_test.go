package unreachable

import "testing"

func TestOnlyTested(t *testing.T) {
	if onlyTested() != 1 {
		t.Fatal("onlyTested")
	}
}

func TestSeam(t *testing.T) {
	if seam() != 2 {
		t.Fatal("seam")
	}
}
