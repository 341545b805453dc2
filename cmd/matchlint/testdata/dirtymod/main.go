// Command dirtymod references the fixture package from non-test code,
// so deadexport reports only what internal/core/dead.go sets up.
package main

import "repro/internal/core"

var (
	_ core.Sizer               = core.Box{}
	_ interface{ Words() int } = core.Box{}
)

func main() {
	_ = core.SumInMapOrder(nil)
	_ = core.TimedRound()
	_ = core.LossyWrap(nil)
}
