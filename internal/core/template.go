package core

import (
	"sync"

	"bespoke/internal/cells"
	"bespoke/internal/cpu"
	"bespoke/internal/layout"
	"bespoke/internal/sta"
)

// baseTemplate is the program-independent half of baseline signoff for
// one cell library: the base core's placement, the clock derived from
// its critical path, and its timing at that clock. Only the ROM image
// differs between flows, and neither placement nor timing reads it, so
// every flow shares one template per library, read-only.
type baseTemplate struct {
	place   *layout.Result
	clockPs float64
	timing  sta.Report
}

// clockMargin sets the derived clock just above the baseline's critical
// path, like a design synthesized for its target frequency.
const clockMargin = 1.02

// templates memoizes baseTemplate per cell library: a cells.Library
// value maps to a once-guarded func() (*baseTemplate, error). The key is
// the library value, so an Options.Lib override with different
// parameters gets its own template and an equal copy shares one. A
// process sees few libraries (the default and a handful of variants), so
// none is evicted.
var templates sync.Map

// templateFor returns lib's template, computing it on first use. A
// concurrent first use computes it once; the others wait for it.
func templateFor(lib *cells.Library) (*baseTemplate, error) {
	l := *lib
	get, _ := templates.LoadOrStore(l, sync.OnceValues(func() (*baseTemplate, error) { return newBaseTemplate(&l) }))
	return get.(func() (*baseTemplate, error))()
}

// newBaseTemplate places and times a private copy of the base core, so
// the tables placement and timing cache on a netlist never reach the
// process-wide elaboration.
func newBaseTemplate(lib *cells.Library) (*baseTemplate, error) {
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
