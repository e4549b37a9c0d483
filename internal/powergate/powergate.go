// Package powergate implements the paper's Figure 15 baseline: an
// oracular, zero-overhead, module-level power gating model. A module is
// assumed to dissipate no power at all (static or dynamic) in any cycle
// where none of its gates toggle, with free and instantaneous wake-up -
// the most optimistic power gating conceivable. The paper (and this
// reproduction) shows that even this oracle saves far less than the worst
// bespoke design, because a module with any per-cycle activity can never
// gate off.
package powergate

import (
	"fmt"
	"sort"

	"bespoke/internal/asm"
	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/layout"
	"bespoke/internal/netlist"
	"bespoke/internal/power"
)

// ModuleStat is per-module activity and power accounting.
type ModuleStat struct {
	Name        string
	Gates       int
	IdleFrac    float64 // fraction of cycles with zero toggles
	StaticUW    float64 // leakage + clock share at nominal
	GatedSaveUW float64
}

// Report is the oracle's outcome for one workload.
type Report struct {
	Modules []ModuleStat
	// TotalUW is the design's total power on the workload.
	TotalUW float64
	// SavedUW is the power removed by oracular gating.
	SavedUW float64
	// SavingsFrac is SavedUW / TotalUW.
	SavingsFrac float64
	Cycles      uint64
}

// Analyze runs the workload on the baseline design, tracking per-cycle
// per-module activity, and computes the oracle's savings.
func Analyze(prog *asm.Program, w *core.Workload) (*Report, error) {
	c := cpu.Build()
	lib := cells.TSMC65()

	byMod := c.N.GatesByModule()
	names := make([]string, 0, len(byMod))
	for name := range byMod {
		names = append(names, name)
	}
	sort.Strings(names)
	modIdx := map[string]int32{}
	for i, n := range names {
		modIdx[n] = int32(i)
	}

	h, err := cpu.NewHarnessOn(c, prog.Bytes, prog.Origin)
	if err != nil {
		return nil, err
	}
	// Tag every gate with its module for per-cycle activity tracking.
	tags := make([]int32, len(c.N.Gates))
	for i := range tags {
		tags[i] = int32(len(names)) // overflow bucket for pseudo-cells
	}
	for name, gates := range byMod {
		for _, g := range gates {
			tags[g] = modIdx[name]
		}
	}
	h.Sim.Tag = tags
	h.Sim.TagTouched = make([]bool, len(names)+1)

	stim := core.NewStimulus(w)
	if err := stim.PreloadRAM(h.SetRAMWord); err != nil {
		return nil, err
	}
	h.Sim.ResetToggleCounts()

	idle := make([]uint64, len(names))
	max := stim.Budget()
	for {
		stim.Apply(h.Cycles, h.SetP1In, h.SetIRQ)
		if h.Cycles >= max {
			return nil, fmt.Errorf("powergate: workload did not halt in %d cycles", max)
		}
		if h.Halted() {
			break
		}
		for i := range h.Sim.TagTouched {
			h.Sim.TagTouched[i] = false
		}
		h.StepCycle()
		h.Sim.Settle()
		for i := range names {
			if !h.Sim.TagTouched[i] {
				idle[i]++
			}
		}
	}
	cycles := h.Cycles
	if cycles == 0 {
		cycles = 1
	}

	// Power accounting at nominal voltage.
	place := layout.Place(c.N, lib)
	rep := power.Analyze(c.N, lib, place, h.Sim.ToggleCount, cycles, 100e6, lib.VNominal)

	out := &Report{TotalUW: rep.TotalUW, Cycles: cycles}
	perDffClockUW := 0.0
	if rep.Dffs > 0 {
		perDffClockUW = rep.ClockUW / float64(rep.Dffs)
	}
	for i, name := range names {
		gates := byMod[name]
		var leakNW float64
		dffs := 0
		for _, g := range gates {
			k := c.N.Gates[g].Kind
			leakNW += lib.ByKind[k].Leakage
			if k == netlist.Dff {
				dffs++
			}
		}
		staticUW := leakNW*1e-3 + float64(dffs)*perDffClockUW
		idleFrac := float64(idle[i]) / float64(cycles)
		save := idleFrac * staticUW
		out.Modules = append(out.Modules, ModuleStat{
			Name: name, Gates: len(gates), IdleFrac: idleFrac,
			StaticUW: staticUW, GatedSaveUW: save,
		})
		out.SavedUW += save
	}
	if out.TotalUW > 0 {
		out.SavingsFrac = out.SavedUW / out.TotalUW
	}
	return out, nil
}
