// The batched harness: 64 concrete CPU runs on one netlist instance,
// cycle-for-cycle compatible with the scalar cpu.Harness +
// core.RunWorkloadHooked loop so a lane extracted from a batch is
// bit-identical to the same run on internal/sim. Lanes retire
// independently (halt, cycle budget, X-poisoned state) via the live
// mask; the instance stops as soon as every lane has retired.
package bitsim

import (
	"context"
	"fmt"
	"math/bits"

	"bespoke/internal/asm"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/msp430"
)

// LaneStatus classifies how a lane's run ended.
type LaneStatus uint8

const (
	// LaneRunning: the lane has not retired yet.
	LaneRunning LaneStatus = iota
	// LaneHalted: the lane reached the halt convention.
	LaneHalted
	// LanePoisoned: an X reached the FSM state or the program counter at
	// an observation point — the scalar engine reports this as a flow
	// error, which fault campaigns classify as a hang.
	LanePoisoned
	// LaneOverBudget: the lane exceeded its cycle budget without
	// halting.
	LaneOverBudget
)

// String names the status.
func (st LaneStatus) String() string {
	switch st {
	case LaneRunning:
		return "running"
	case LaneHalted:
		return "halted"
	case LanePoisoned:
		return "poisoned"
	case LaneOverBudget:
		return "over-budget"
	}
	return fmt.Sprintf("LaneStatus(%d)", int(st))
}

// LaneResult is one lane's architectural outcome.
type LaneResult struct {
	Status LaneStatus
	// Cycles is the cycle count at halt or retirement, counted like
	// cpu.Harness.Cycles.
	Cycles uint64
	// Out is the lane's OUTPORT stream.
	Out []uint16
	// Detail describes a poisoned or over-budget retirement.
	Detail string
}

// Harness drives up to 64 concrete runs of one core design. Configure
// per-lane faults (Sim.ForceLane), programs (ROM.LoadLaneProgram) and
// then call Run once; a Harness is single-shot.
type Harness struct {
	Core *cpu.Core
	S    *Sim
	ROM  *ROM
	RAM  *RAM
	// Lane holds per-lane outcomes, valid after Run.
	Lane []LaneResult

	n      int
	live   uint64
	cycles uint64

	pcPlanes []W // scratch
	dffScr   []logic.V
}

// NewHarness builds a batched harness for n lanes on the given core
// (whose netlist is read, never mutated): the program image is loaded
// into the shared ROM base, and the simulator is constructed but not yet
// reset, so callers can configure lane faults and lane programs before
// Run.
func NewHarness(c *cpu.Core, prog *asm.Program, n int) (*Harness, error) {
	if n < 1 || n > Lanes {
		return nil, fmt.Errorf("bitsim: %d lanes out of range [1,%d]", n, Lanes)
	}
	rom := NewROM(c.ROM)
	ram := NewRAM(c.RAM)
	if prog != nil {
		rom.LoadProgram(prog.Bytes, prog.Origin, msp430.ROMStart)
	}
	s, err := New(c.N, rom, ram)
	if err != nil {
		return nil, err
	}
	return &Harness{
		Core: c, S: s, ROM: rom, RAM: ram,
		Lane:     make([]LaneResult, n),
		n:        n,
		pcPlanes: make([]W, len(c.Regs[msp430.PC])),
	}, nil
}

// Cycles returns the batch's current cycle count (all live lanes run in
// lockstep, so one counter serves every lane).
func (h *Harness) Cycles() uint64 { return h.cycles }

// Live returns the mask of lanes still running.
func (h *Harness) Live() uint64 { return h.live }

// retire removes lane l from the live mask and records its outcome.
func (h *Harness) retire(l int, st LaneStatus, detail string) {
	h.live &^= uint64(1) << uint(l)
	h.Lane[l].Status = st
	h.Lane[l].Cycles = h.cycles
	h.Lane[l].Detail = detail
}

// setP1Lane drives lane l of the P1 input port.
func (h *Harness) setP1Lane(l int, v uint16) {
	for i, id := range h.Core.P1In {
		h.S.DriveLane(id, l, logic.V(v>>uint(i)&1))
	}
}

// setIRQLane drives lane l of external interrupt line i.
func (h *Harness) setIRQLane(l, line int, level bool) {
	h.S.DriveLane(h.Core.IRQ[line], l, logic.FromBool(level))
}

// sampleOut appends the OUTPORT word on every live lane whose write
// strobe is a known One this cycle (the scalar harness's sampling rule).
func (h *Harness) sampleOut() {
	wr := h.S.Val[h.Core.OutWr]
	m := wr.V & wr.D & h.live
	for ; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		w := h.S.ReadBusLane(h.Core.OutData, l)
		h.Lane[l].Out = append(h.Lane[l].Out, w.Val)
	}
}

// stepCycle advances one clock: settle, sample the output port, edge.
func (h *Harness) stepCycle() {
	h.S.Settle()
	h.sampleOut()
	h.S.Edge()
	h.cycles++
}

// checkHalt settles the lanes' observable state and retires lanes that
// poisoned (X in the FSM state, or in the PC at an instruction
// boundary) or reached the halt convention, in the same order the
// scalar run loop observes them.
func (h *Harness) checkHalt() {
	// FSM state: all bits known-zero means FETCH; any X bit means the
	// concrete simulation lost determinism in that lane.
	known := ^uint64(0)
	zero := ^uint64(0)
	for _, id := range h.Core.State {
		w := h.S.Val[id]
		known &= w.D
		zero &= w.D &^ w.V
	}
	if bad := h.live &^ known; bad != 0 {
		for ; bad != 0; bad &= bad - 1 {
			h.retire(bits.TrailingZeros64(bad), LanePoisoned, "FSM state is X in concrete simulation")
		}
	}
	cand := h.live & zero
	if cand == 0 {
		return
	}
	pc := h.Core.Regs[msp430.PC]
	pcKnown := ^uint64(0)
	for i, id := range pc {
		w := h.S.Val[id]
		h.pcPlanes[i] = w
		pcKnown &= w.D
	}
	if bad := cand &^ pcKnown; bad != 0 {
		for ; bad != 0; bad &= bad - 1 {
			h.retire(bits.TrailingZeros64(bad), LanePoisoned, "pc is partially unknown")
		}
		cand &= pcKnown
	}
	irq := h.S.Val[h.Core.IrqTake]
	irqZero := irq.D &^ irq.V
	for m := cand; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		var pcv uint16
		for i := range h.pcPlanes {
			pcv |= uint16(h.pcPlanes[i].V>>uint(l)&1) << uint(i)
		}
		if !msp430.InROM(pcv) {
			continue
		}
		if h.ROM.LaneWord(l, (pcv-msp430.ROMStart)/2) != msp430.HaltWord {
			continue
		}
		if irqZero>>uint(l)&1 == 0 {
			continue
		}
		h.retire(l, LaneHalted, "")
	}
}

// Run resets the batch, applies per-lane workloads (ws[l] stimulates
// lane l; nil entries and missing tails run unstimulated) and simulates
// until every lane retires. The loop reproduces core.RunWorkloadHooked
// cycle for cycle: stimulus and budget checks precede the hook, the
// hook precedes the halt check, and the output port is sampled before
// every clock edge. The hook (may be nil) is invoked once per cycle
// with the harness, like the scalar run hook; fault drivers use it to
// strike lanes mid-run. Only a cancelled context or a workload that
// fails core.Workload.Validate aborts the whole batch; per-lane
// failures retire the lane.
func (h *Harness) Run(ctx context.Context, ws []*core.Workload, hook func(*Harness)) error {
	s := h.S
	s.Reset()
	for i := range h.Core.IRQ {
		s.Drive(h.Core.IRQ[i], Splat(logic.Zero))
	}
	for _, id := range h.Core.P1In {
		s.Drive(id, Splat(logic.Zero))
	}
	if h.n == Lanes {
		h.live = ^uint64(0)
	} else {
		h.live = uint64(1)<<uint(h.n) - 1
	}
	// One cycle of stRESET loads PC from the reset vector (the scalar
	// harness samples the output port during this cycle too).
	h.stepCycle()
	s.Settle()
	known := ^uint64(0)
	zero := ^uint64(0)
	for _, id := range h.Core.State {
		w := s.Val[id]
		known &= w.D
		zero &= w.D &^ w.V
	}
	if bad := h.live &^ (known & zero); bad != 0 {
		for m := bad; m != 0; m &= m - 1 {
			h.retire(bits.TrailingZeros64(m), LanePoisoned, "expected FETCH after reset")
		}
	}
	h.cycles = 0

	stim := make([]core.Stimulus, h.n)
	for l := range stim {
		if l < len(ws) {
			stim[l] = core.NewStimulus(ws[l])
		}
		err := stim[l].PreloadRAM(func(addr, v uint16) {
			h.RAM.SetLaneWord(l, (addr-msp430.RAMStart)/2, logic.KnownWord(v))
		})
		if err != nil {
			return fmt.Errorf("bitsim: lane %d: %w", l, err)
		}
	}

	for h.live != 0 {
		if h.cycles&1023 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("bitsim: batch aborted at cycle %d: %w", h.cycles, cerr)
			}
		}
		for m := h.live; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			stim[l].Apply(h.cycles,
				func(v uint16) { h.setP1Lane(l, v) },
				func(line int, level bool) { h.setIRQLane(l, line, level) })
			if budget := stim[l].Budget(); h.cycles >= budget {
				h.retire(l, LaneOverBudget,
					fmt.Sprintf("workload did not halt in %d cycles", budget))
			}
		}
		if h.live == 0 {
			break
		}
		if hook != nil {
			hook(h)
		}
		s.Settle()
		h.checkHalt()
		if h.live == 0 {
			break
		}
		h.stepCycle()
	}
	for l := 0; l < h.n; l++ {
		if h.Lane[l].Status == LaneRunning {
			// Unreachable: every lane retires before the loop exits.
			h.Lane[l].Status = LanePoisoned
			h.Lane[l].Detail = "lane never retired"
		}
	}
	return nil
}

// DffSnapshotLane returns lane l's flip-flop state in netlist DffIDs
// order (comparable with sim.DffSnapshot of the equivalent scalar run).
func (h *Harness) DffSnapshotLane(l int) []logic.V {
	h.dffScr = h.S.DffSnapshotLane(l, h.dffScr)
	return append([]logic.V(nil), h.dffScr...)
}
