package core

import (
	"sync"

	"bespoke/internal/cells"
	"bespoke/internal/cpu"
	"bespoke/internal/layout"
	"bespoke/internal/sta"
)

// baseTemplate is the program-independent half of baseline signoff: the
// base core's placement, the clock derived from its critical path, and
// its timing at that clock. Only the ROM image differs between flows,
// and neither placement nor timing reads it, so every flow shares one
// template, read-only.
type baseTemplate struct {
	place   *layout.Result
	clockPs float64
	timing  sta.Report
}

// clockMargin sets the derived clock just above the baseline's critical
// path, like a design synthesized for its target frequency.
const clockMargin = 1.02

// templateFor returns the shared template, computing it on first use. A
// concurrent first use computes it once; the others wait for it.
var templateFor = sync.OnceValues(newBaseTemplate)

// newBaseTemplate places and times a private copy of the base core, so
// the tables placement and timing cache on a netlist never reach the
// process-wide elaboration.
func newBaseTemplate() (*baseTemplate, error) {
	lib := cells.TSMC65()
	c := cpu.Base()
	place := layout.Place(c.N, lib)
	t, err := sta.Analyze(c.N, lib, place, 0, blockPaths(c))
	if err != nil {
		return nil, err
	}
	clockPs := t.CriticalPs * clockMargin
	timing, err := sta.Analyze(c.N, lib, place, clockPs, blockPaths(c))
	if err != nil {
		return nil, err
	}
	return &baseTemplate{place: place, clockPs: clockPs, timing: timing}, nil
}
