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
