// Package power is the activity-based power model (the flow's PrimeTime):
// dynamic power from per-gate toggle counts collected by the gate-level
// simulator, pin and routed-wire loading from the cell library and the
// placement, a clock-tree model proportional to the flip-flop population,
// and state-dependent-free leakage per cell. Supply-voltage scaling uses
// the cell library's scale laws so Table 2's slack-to-power conversion
// falls out.
package power

import (
	"bespoke/internal/cells"
	"bespoke/internal/layout"
	"bespoke/internal/netlist"
)

// Report is the power/area summary of one design under one workload.
type Report struct {
	// Powers in microwatts at the analyzed supply.
	DynamicUW float64 // combinational + register output switching
	ClockUW   float64 // clock tree and flip-flop clock pins
	LeakUW    float64
	TotalUW   float64
	// AreaUm2 is the placed die area.
	AreaUm2 float64
	// Cells and Dffs are the cell populations.
	Cells, Dffs int
}

// clockPinFJ is the energy of one flip-flop clock pin per clock cycle.
const clockPinFJ = 1.0

// clockTreeFanout is the buffer-tree branching factor.
const clockTreeFanout = 4

// Analyze computes the power report. toggles/cycles come from a concrete
// simulation of a representative workload; fHz is the clock; vdd the
// supply voltage.
func Analyze(n *netlist.Netlist, lib *cells.Library, place *layout.Result, toggles []uint64, cycles uint64, fHz, vdd float64) Report {
	var rep Report
	rep.AreaUm2 = place.AreaUm2
	if cycles == 0 {
		cycles = 1
	}

	fanout := n.Fanout()
	var dynFJPerCycle float64
	var leakNW float64
	for i := range n.Gates {
		g := &n.Gates[i]
		switch g.Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		rep.Cells++
		if g.Kind == netlist.Dff {
			rep.Dffs++
		}
		p := lib.ByKind[g.Kind]
		leakNW += p.Leakage

		alpha := float64(toggles[i]) / float64(cycles)
		if alpha == 0 {
			continue
		}
		// Load: fanout input pins plus routed wire.
		loadFF := place.WireCapFF(lib, netlist.GateID(i))
		for _, fo := range fanout[i] {
			loadFF += lib.ByKind[n.Gates[fo].Kind].InputCap
		}
		energyFJ := p.SwitchEnergy + 0.5*loadFF // C*V^2/2 at V=1
		dynFJPerCycle += alpha * energyFJ
	}

	// Clock network: every flip-flop's clock pin toggles twice a cycle,
	// fed by a buffer tree.
	clkFJPerCycle := float64(rep.Dffs) * clockPinFJ
	bufs := 0
	for nLeaf := rep.Dffs; nLeaf > 1; nLeaf = (nLeaf + clockTreeFanout - 1) / clockTreeFanout {
		bufs += (nLeaf + clockTreeFanout - 1) / clockTreeFanout
	}
	clkFJPerCycle += float64(bufs) * lib.ClockBufEnergy

	dynScale := lib.DynScale(vdd)
	leakScale := lib.LeakScale(vdd)

	// fJ/cycle * cycles/s = fW*1e15... convert to microwatts.
	toUW := fHz * 1e-9
	rep.DynamicUW = dynFJPerCycle * toUW * dynScale
	rep.ClockUW = clkFJPerCycle * toUW * dynScale
	rep.LeakUW = leakNW * 1e-3 * leakScale
	rep.TotalUW = rep.DynamicUW + rep.ClockUW + rep.LeakUW
	return rep
}

// Static places a design and returns its area and its workload-
// independent power in microwatts at nominal supply and the paper's
// 100 MHz clock: cell leakage plus one flip-flop clock pin per cycle.
// The multi-program and mutant studies compare designs by it, since
// subsetting changes the design but not the workload.
func Static(n *netlist.Netlist, lib *cells.Library) (areaUm2, uW float64) {
	var leakNW float64
	dffs := 0
	for i := range n.Gates {
		k := n.Gates[i].Kind
		switch k {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		leakNW += lib.ByKind[k].Leakage
		if k == netlist.Dff {
			dffs++
		}
	}
	const fHz = 100e6
	return layout.Place(n, lib).AreaUm2, leakNW*1e-3 + float64(dffs)*clockPinFJ*fHz*1e-9
}
