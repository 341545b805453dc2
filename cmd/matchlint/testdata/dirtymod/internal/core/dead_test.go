package core

import "testing"

func TestFixtures(t *testing.T) {
	if Helper()+KeptFixture()+BareFixture() != 6 {
		t.Fatal("fixture values changed")
	}
}
