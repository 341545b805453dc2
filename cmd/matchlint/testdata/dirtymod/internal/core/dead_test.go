package core

import "testing"

type peeker interface{ Peek() int }

func TestFixtures(t *testing.T) {
	var p interface{ Probe() int } = Box{}
	var k peeker = Box{}
	if Helper()+KeptFixture()+BareFixture()+p.Probe()+k.Peek() != 19 {
		t.Fatal("fixture values changed")
	}
}
