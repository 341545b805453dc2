package core

// Helper is exported, but only dead_test.go calls it: deadexport
// reports it.
func Helper() int { return 1 }

// KeptFixture is test-only too, and kept on purpose.
//
//lint:deadexport fixture: a justified directive suppresses the finding
func KeptFixture() int { return 2 }

// BareFixture carries a directive without a justification, which does
// not suppress the finding.
//
//lint:deadexport
func BareFixture() int { return 3 }

// Sizer is a named interface that Box satisfies.
type Sizer interface{ Size() int }

// Box's methods are called only through interfaces, so deadexport
// counts both as used.
type Box struct{}

// Size satisfies Sizer.
func (Box) Size() int { return 4 }

// Words satisfies the interface literal in main.go.
func (Box) Words() int { return 5 }

// Probe is called only through an interface literal in dead_test.go, and
// Peek only through an interface type dead_test.go declares: no program
// reaches either, so deadexport reports both.
func (Box) Probe() int { return 6 }

// Peek: see Probe.
func (Box) Peek() int { return 7 }
