// Package cpu generates the gate-level openMSP430-class microcontroller
// that the bespoke flow tailors. The core is built entirely from the
// 2-input cells of internal/netlist via the internal/builder DSL and is
// functionally verified against the internal/isasim golden model,
// instruction by instruction (see cosim_test.go).
//
// Microarchitecture: a single-issue multicycle machine (no pipeline, no
// caches, no prediction - the ULP class of the paper's Table 6) with one
// unified memory port. Instructions take 1-7 cycles through the state
// machine below. Memory arrays (RAM, ROM) are behavioral macros; all bus
// and peripheral logic is gates.
//
// Module decomposition mirrors the openMSP430 blocks the paper reports:
// frontend (fetch/decode/state), execution (operand and address glue),
// alu, register_file, mem_backbone, multiplier, sfr, watchdog,
// clock_module, and dbg.
package cpu

import (
	"fmt"
	"sync"

	"bespoke/internal/builder"
	"bespoke/internal/msp430"
	"bespoke/internal/netlist"
	"bespoke/internal/sim"
)

// FSM states. FETCH is 0 so instruction boundaries are easy to observe.
const (
	stFETCH uint64 = iota
	stSRCEXT
	stSRCRD
	stDSTEXT
	stDSTRD
	stEXEC
	stDSTWR
	stPUSH1
	stCALL1
	stCALL2
	stRETI1
	stRETI2
	stIRQ1
	stIRQ2
	stIRQ3
	stRESET // entered at power-on to fetch the reset vector
)

// NumIRQ is the number of external interrupt request lines.
const NumIRQ = 3

// Exported FSM state values for observers (symbolic execution, power
// gating analysis).
const (
	StateFETCH = stFETCH
	StateEXEC  = stEXEC
)

// Core is the generated design plus the observation map used by the
// testbench, the co-simulator and the symbolic execution engine.
type Core struct {
	N *netlist.Netlist

	// Memory macros (attach to a Sim via NewSim).
	ROM *sim.ROM
	RAM *sim.RAM

	// Primary inputs.
	IRQ  [NumIRQ]builder.Wire
	P1In builder.Bus

	// Primary outputs (nets).
	OutData builder.Bus // OUTPORT write value
	OutWr   builder.Wire
	P1Out   builder.Bus

	// Architectural state (flip-flop nets).
	Regs  [16]builder.Bus // Regs[2] (SR) is 9 bits wide
	State builder.Bus
	IRReg builder.Bus
	IEReg builder.Bus
	IFReg builder.Bus

	// CPUEn is the clock-module enable: state advances when 1.
	CPUEn builder.Wire
	// MAB/MdbOut/PerWrAny expose the memory bus for observers.
	MAB      builder.Bus
	MdbOut   builder.Bus
	PerWrAny builder.Wire
	// IrqTake is the net that decides interrupt entry during FETCH; the
	// symbolic engine forks the execution tree when it is X.
	IrqTake builder.Wire

	// Micro exposes the microarchitectural flip-flop buses (extension
	// words, operand/result/address latches, interrupt and clock-divider
	// counters) by name. The sequential-abstraction engines need them:
	// a claim cone that reads a latch no invariant ranges over can never
	// be inductive, because the abstraction admits stale junk in it.
	Micro []NamedBus
}

// NamedBus names one internal flip-flop bus of the core.
type NamedBus struct {
	Name string
	Bits builder.Bus
}

// ObservedGates returns every net that is read from outside the gate
// graph: memory-macro pins and the observation surface above. Together
// with the primary outputs these are the liveness roots of the design —
// the set lint.Config.KeepAlive wants, and the same roots the
// elaboration orphan sweep protects.
func (c *Core) ObservedGates() []netlist.GateID {
	var keep []netlist.GateID
	keep = append(keep, c.ROM.Inputs()...)
	keep = append(keep, c.RAM.Inputs()...)
	keep = append(keep, c.OutData...)
	keep = append(keep, c.P1Out...)
	keep = append(keep, c.OutWr)
	for _, r := range c.Regs {
		keep = append(keep, r...)
	}
	keep = append(keep, c.State...)
	keep = append(keep, c.IRReg...)
	keep = append(keep, c.IEReg...)
	keep = append(keep, c.IFReg...)
	keep = append(keep, c.MAB...)
	keep = append(keep, c.MdbOut...)
	keep = append(keep, c.CPUEn, c.PerWrAny, c.IrqTake)
	return keep
}

// PC returns the program counter flip-flop nets.
func (c *Core) PC() builder.Bus { return c.Regs[msp430.PC] }

// SP returns the stack pointer flip-flop nets.
func (c *Core) SP() builder.Bus { return c.Regs[msp430.SP] }

// SR returns the status register flip-flop nets (9 bits).
func (c *Core) SR() builder.Bus { return c.Regs[msp430.SR] }

// NewSim instantiates a simulator over the core and its memory macros.
func (c *Core) NewSim() (*sim.Sim, error) {
	return sim.New(c.N, c.ROM, c.RAM)
}

// LoadProgram copies a binary image into ROM.
func (c *Core) LoadProgram(image []byte, loadAddr uint16) {
	words := c.ROM.Words()
	for i := 0; i+1 < len(image); i += 2 {
		a := loadAddr + uint16(i)
		words[(a-msp430.ROMStart)/2] = uint16(image[i]) | uint16(image[i+1])<<8
	}
	if len(image)%2 == 1 {
		a := loadAddr + uint16(len(image)) - 1
		w := words[(a-msp430.ROMStart)/2]
		words[(a-msp430.ROMStart)/2] = w&0xFF00 | uint16(image[len(image)-1])
	}
}

// Clone returns a core over a deep-copied netlist with independent
// memory macros; the bespoke flow cuts the clone while the baseline stays
// intact. Gate IDs are preserved, so analysis arrays and observation
// buses remain valid for both.
func (c *Core) Clone() *Core { return c.with(c.N.Clone()) }

// with returns a core over n sharing c's observation map, with
// independent memory macros. n must keep c's gate numbering.
func (c *Core) with(n *netlist.Netlist) *Core {
	c2 := *c
	c2.N = n
	c2.RAM = c.RAM.CloneEmpty()
	c2.ROM = c.ROM.Clone()
	return &c2
}

// gen carries every intermediate signal while the core is elaborated.
type gen struct {
	b *builder.Builder
	c *Core

	// registers (created first, wired at the end)
	state                  builder.Reg
	ir, ext, dext          builder.Reg
	srcv, dstv, res, daddr builder.Reg
	regs                   [16]builder.Reg
	ieReg, ifgReg          builder.Reg

	// state decode
	stIs [16]builder.Wire

	// instruction decode (from decodeWord)
	dw                           builder.Bus
	sreg, dreg, as, opc          builder.Bus
	isFmt1, isFmt2, isJmp, bw    builder.Wire
	ad                           builder.Wire
	f2RRC, f2SWPB, f2RRA, f2SXT  builder.Wire
	f2PUSH, f2CALL, f2RETI       builder.Wire
	f2RMW, f2Mem                 builder.Wire
	srcIsCG, srcIsImm, srcAbs    builder.Wire
	srcNeedsExt, srcNeedsRead    builder.Wire
	srcIsRegOrCG, srcIncEn       builder.Wire
	srcModeReg                   builder.Wire
	incIsOne                     builder.Wire
	dstIsMem, dstAbs             builder.Wire
	opWrites, opSetsFlags, isMOV builder.Wire
	cgVal                        builder.Bus
	nx                           *decSet // decoder over the fetched word
	irqNumReg                    builder.Reg
	bcsReg, divCnt               builder.Reg

	// buses
	mab, mdbIn, mdbOut builder.Bus
	men, mwr           builder.Wire
	mwrLo, mwrHi       builder.Wire
	memRdVal           builder.Bus // byte-lane extracted / word
	perOut             builder.Bus
	perSel             builder.Wire
	perWrLo, perWrHi   builder.Wire
	perWrAny           builder.Wire
	perContrib         []builder.Bus

	// register file values and write ports
	rfA, rfB   builder.Bus // read ports (sreg, dreg)
	pc, sp     builder.Bus
	sr         builder.Bus // 9 bits
	portWEn    builder.Wire
	portWSel   builder.Bus
	portWData  builder.Bus
	portXEn    builder.Wire
	portXSel   builder.Bus
	portXData  builder.Bus
	flagWrite  builder.Wire
	aluC, aluZ builder.Wire
	aluN, aluV builder.Wire
	srFromMem  builder.Wire // RETI1
	srClear    builder.Wire // IRQ3
	srcVal     builder.Bus
	dstVal     builder.Bus
	aluRes     builder.Bus
	pcAdd      builder.Bus // frontend adder output
	addrAdd    builder.Bus // execution address adder output
	irqTake    builder.Wire
	irqNum     builder.Bus // 2 bits
	sleep      builder.Wire
	cpuEn      builder.Wire
	smclkTick  builder.Wire
	jumpTaken  builder.Wire
	gie        builder.Wire
	outWr      builder.Wire
}

// Build elaborates the full microcontroller netlist.
func Build() *Core {
	b := builder.New()
	g := &gen{b: b, c: &Core{}}

	// Primary inputs first.
	for i := 0; i < NumIRQ; i++ {
		g.c.IRQ[i] = b.Input(nameIRQ(i))
	}
	g.c.P1In = b.InputBus("p1in", 16)

	g.makeRegisters()
	g.clockModule()
	g.decode()
	g.irqLogic()
	g.regFileRead()
	g.frontendEarly()
	g.execution()
	g.alu()
	g.frontendLate()
	g.memBackbone()
	g.peripherals()
	g.regFileWrite()
	g.wireRegisters()

	g.c.N = b.N
	g.c.sweepOrphans()
	if err := b.N.Validate(); err != nil {
		panic("cpu: generated netlist invalid: " + err.Error()) // panic-ok: the generator emitting an invalid netlist is a bug in this package
	}
	return g.c
}

// pristine is the process-wide elaboration Base copies. It is never run,
// mutated or handed out, and carries no derived netlist tables, so
// concurrent Clones only read it.
var pristine = sync.OnceValue(func() *Core {
	c := Build()
	c.N.InvalidateDerived()
	return c
})

// Base returns a private copy of the elaborated core. Elaboration is
// deterministic, so the first call builds once per process and every call
// clones that build: the result equals Build's at the cost of a netlist
// copy.
func Base() *Core { return pristine().Clone() }

// BaseWith returns a base core over n instead of a copy of the
// elaboration's netlist, without copying n. n must keep the elaboration's
// gate numbering, as a cut and re-synthesized design does (both stages
// rewrite gates in place), so every recorded wire and macro pin stays
// valid; a netlist with a different gate count is rejected.
func BaseWith(n *netlist.Netlist) (*Core, error) {
	p := pristine()
	if len(n.Gates) != len(p.N.Gates) {
		return nil, fmt.Errorf("cpu: netlist has %d gates, the base core has %d", len(n.Gates), len(p.N.Gates))
	}
	return p.with(n), nil
}

// sweepOrphans retires combinational cones that nothing reads. The
// word-level builder helpers elaborate full decode trees and minterm
// sets, and the blocks above consume only the terms they need, so
// elaboration leaves behind unnamed cones with no path to any output,
// flip-flop or observed net — logic a synthesis front end would drop
// during elaboration. Retiring it here keeps the base core free of
// dead-logic lint findings and keeps the simulator from evaluating
// gates that cannot matter. Gates are converted to constants in place,
// never renumbered, so every recorded wire and macro pin stays valid.
func (c *Core) sweepOrphans() {
	n := c.N
	live := make([]bool, len(n.Gates))
	stack := make([]netlist.GateID, 0, len(n.Gates))
	mark := func(id netlist.GateID) {
		if id >= 0 && int(id) < len(n.Gates) && !live[id] {
			live[id] = true
			stack = append(stack, id)
		}
	}
	for _, o := range n.Outputs {
		mark(o.Gate)
	}
	for _, id := range c.ObservedGates() {
		mark(id)
	}
	// Named gates are observation anchors (tests and tools look them up
	// by name); flip-flops are state. Both are sinks in their own right.
	for i := range n.Gates {
		if n.Gates[i].Name != "" || n.Gates[i].Kind.IsSeq() {
			mark(netlist.GateID(i))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := &n.Gates[id]
		for p := 0; p < g.Kind.NumInputs(); p++ {
			if g.In[p] != netlist.None {
				mark(g.In[p])
			}
		}
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		if !live[i] && !g.Kind.IsSeq() && g.Kind.NumInputs() > 0 {
			g.Kind = netlist.Const0
			g.In = [3]netlist.GateID{netlist.None, netlist.None, netlist.None}
			g.Reset = 0
		}
	}
	n.InvalidateDerived()
}

func nameIRQ(i int) string {
	return "irq" + string(rune('0'+i))
}
