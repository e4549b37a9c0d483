// Package core is the bespoke-processor flow itself - the paper's primary
// contribution as a library. Tailor takes a general purpose gate-level
// microcontroller and an application binary and produces a bespoke design
// containing only the gates the application can ever exercise:
//
//	analysis := input-independent gate activity analysis (symexec)
//	cut      := remove untoggleable gates, stitch constants (cut)
//	resynth  := fold constants, drop floating logic (synth)
//	prove    := optional formal gate: SAT-prove the constants and the
//	            base-vs-bespoke equivalence (equiv)
//	P&R      := place, extract wire parasitics (layout)
//	signoff  := timing/Vmin (sta) and activity-based power (power)
//
// TailorMulti supports multiple target applications (the union of their
// exercised gates), and TailorCoarse is the module-level baseline the
// paper's Figure 12 compares against.
package core

import (
	"context"
	"errors"
	"fmt"

	"bespoke/internal/asm"
	"bespoke/internal/cells"
	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/layout"
	"bespoke/internal/msp430"
	"bespoke/internal/netlist"
	"bespoke/internal/parallel"
	"bespoke/internal/power"
	"bespoke/internal/sta"
	"bespoke/internal/symexec"
	"bespoke/internal/synth"
)

// P1Step drives the P1 input port to Value at cycle At.
type P1Step struct {
	At    uint64
	Value uint16
}

// IRQStep drives external interrupt line Line to Level at cycle At.
type IRQStep struct {
	At    uint64
	Line  int
	Level bool
}

// Workload is one representative concrete execution used for dynamic
// power measurement and input-based verification.
type Workload struct {
	// RAM preloads words (byte address -> value) before release. Every
	// address must be even and inside data RAM (see Validate).
	RAM map[uint16]uint16
	// P1 and IRQ drive input pins at given cycles.
	P1  []P1Step
	IRQ []IRQStep
	// MaxCycles bounds the run (default 2M).
	MaxCycles uint64
}

// PreloadError reports a RAM preload no harness can apply: its byte
// address lies outside data RAM (msp430.RAMStart..RAMEnd) or is odd,
// which would alias the even word below it.
type PreloadError struct {
	Addr uint16
}

func (e *PreloadError) Error() string {
	if msp430.InRAM(e.Addr) {
		return fmt.Sprintf("core: RAM preload address %#04x is odd (preloads are whole words)", e.Addr)
	}
	return fmt.Sprintf("core: RAM preload address %#04x is outside data RAM %#04x..%#04x",
		e.Addr, msp430.RAMStart, msp430.RAMEnd)
}

// Validate reports whether every harness can apply w; a nil workload is
// valid. A bad RAM preload is a *PreloadError naming the lowest bad
// address, so the error does not depend on map order.
func (w *Workload) Validate() error {
	if w == nil {
		return nil
	}
	var bad *PreloadError
	for a := range w.RAM {
		if (!msp430.InRAM(a) || a&1 != 0) && (bad == nil || a < bad.Addr) {
			bad = &PreloadError{Addr: a}
		}
	}
	if bad != nil {
		return bad
	}
	return nil
}

// Options tunes the flow.
type Options struct {
	// Sym tunes the activity analysis.
	Sym symexec.Options
	// ClockPs overrides the clock period; 0 derives it from the
	// baseline's critical path (the baseline just meets timing, like a
	// design synthesized for its target frequency).
	ClockPs float64
	// Lib overrides the cell library.
	Lib *cells.Library
	// Prove enables the formal gate: every cut constant must be proved
	// implied by the proof environment (or recorded as assumed), and the
	// bespoke netlist must be miter-equivalent to the baseline, for every
	// target program. A refuted constant aborts the flow with a
	// *equiv.ProofError inside the "prove" stage. Setting Prove forces
	// Sym.RecordDomains on so the prover sees the reachable bus values.
	Prove bool
	// ProveOpts tunes the proof engine when Prove is set.
	ProveOpts equiv.Options
	// Induct enables the inductive invariant engine inside the formal
	// gate (implies Prove): candidate invariants are inferred by abstract
	// interpretation and discharged by k-induction, per-claim proofs and
	// the miter consume the proved invariants INSTEAD of the recorded
	// dynamic bus domains, and Assumed claims that are themselves members
	// of the inductive core are upgraded to proved. Nothing inferred is
	// ever assumed: an invariant is used only if its induction step was
	// UNSAT.
	Induct bool
	// InductK caps the induction ladder depth when Induct is set
	// (0: engine default).
	InductK int
	// Resilience, when non-nil, enables the resilience signoff stage: a
	// combinational SET campaign on the baseline and bespoke designs,
	// gated on the bespoke design's visible-fault budget. A violation
	// (or an unconfigured runner) aborts the flow with a
	// *ResilienceError inside the "resilience" stage.
	Resilience *ResilienceOptions
}

// Metrics are the signoff numbers for one design point.
type Metrics struct {
	Gates  int
	Dffs   int
	Timing sta.Report
	Power  power.Report
}

// Result is the outcome of tailoring.
type Result struct {
	Baseline Metrics
	Bespoke  Metrics
	// BespokeAtVmin is the bespoke design re-analyzed at the reduced
	// supply that its exposed timing slack allows.
	BespokeAtVmin power.Report

	Analysis   *symexec.Result
	CutStats   cut.Stats
	SynthStats synth.Stats
	// Proofs holds the per-program formal verification outcomes when
	// Options.Prove was set (nil otherwise).
	Proofs []ProofResult
	// Resilience holds the SET campaign's base-vs-bespoke vulnerability
	// comparison when Options.Resilience was set (nil otherwise).
	Resilience *ResilienceReport

	// Headline ratios (fractions, 0..1).
	GateSavings      float64
	AreaSavings      float64
	PowerSavings     float64
	PowerSavingsVmin float64

	// BespokeCore is the tailored design, still executable.
	BespokeCore *cpu.Core
	// BaselineCore is the untouched general purpose design.
	BaselineCore *cpu.Core
}

// RunTrace is the observable outcome of a workload run.
type RunTrace struct {
	Out     []uint16
	Cycles  uint64
	Toggles []uint64
}

// ctxCheckMask throttles context polling in the concrete-simulation hot
// loop: the context is checked every 1024 simulated cycles.
const ctxCheckMask = 1023

// RunWorkload executes prog's workload concretely on core and collects
// toggle counts. The run ends at the testbench halt convention. The
// context bounds the run: cancellation or an expired deadline aborts it
// (polled every 1024 cycles), and a panic inside the simulation is
// recovered into a *FlowError rather than crashing the caller.
func RunWorkload(ctx context.Context, core *cpu.Core, prog *asm.Program, w *Workload) (*RunTrace, error) {
	return RunWorkloadHooked(ctx, core, prog, w, nil)
}

// RunWorkloadHooked is RunWorkload with a per-cycle observer: hook is
// called once per cycle after the workload's inputs are driven and before
// the clock edge. The fault injection engine uses it to flip state bits
// mid-run; a nil hook is a plain run.
func RunWorkloadHooked(ctx context.Context, core *cpu.Core, prog *asm.Program, w *Workload, hook func(h *cpu.Harness)) (tr *RunTrace, err error) {
	stage := "workload"
	defer guard(&stage, &err)
	if prog == nil {
		return nil, stageErr(stage, netlist.None, fmt.Errorf("core: nil program"))
	}
	h, err := cpu.NewHarnessOn(core, prog.Bytes, prog.Origin)
	if err != nil {
		return nil, stageErr(stage, netlist.None, err)
	}
	stim := NewStimulus(w)
	max := stim.Budget()
	if err := stim.PreloadRAM(h.SetRAMWord); err != nil {
		return nil, stageErr(stage, netlist.None, err)
	}
	h.Sim.ResetToggleCounts()
	for {
		if h.Cycles&ctxCheckMask == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, stageErr(stage, netlist.None,
					fmt.Errorf("core: workload aborted at cycle %d: %w", h.Cycles, cerr))
			}
		}
		stim.Apply(h.Cycles, h.SetP1In, h.SetIRQ)
		if h.Cycles >= max {
			return nil, stageErr(stage, netlist.None,
				fmt.Errorf("core: workload did not halt in %d cycles (pc=%#04x)", max, h.PCVal()))
		}
		if hook != nil {
			hook(h)
		}
		if h.Halted() {
			break
		}
		h.StepCycle()
	}
	return &RunTrace{Out: h.Out, Cycles: h.Cycles, Toggles: append([]uint64(nil), h.Sim.ToggleCount...)}, nil
}

// blockPaths builds the STA macro arcs for the core's memories.
func blockPaths(core *cpu.Core) []sta.BlockPath {
	const memAccessPs = 1200
	return []sta.BlockPath{
		{Ins: core.ROM.Inputs(), Outs: core.ROM.Outputs(), DelayPs: memAccessPs},
		{Ins: core.RAM.Inputs(), Outs: core.RAM.Outputs(), DelayPs: memAccessPs},
	}
}

// keepAlive lists the nets re-synthesis must preserve: memory macro pins.
func keepAlive(core *cpu.Core) []netlist.GateID {
	var keep []netlist.GateID
	keep = append(keep, core.ROM.Inputs()...)
	keep = append(keep, core.RAM.Inputs()...)
	return keep
}

// measure runs signoff for one placed and timed design point: the
// workload run and activity-based power at the nominal supply.
func measure(ctx context.Context, core *cpu.Core, prog *asm.Program, w *Workload, lib *cells.Library, place *layout.Result, timing sta.Report) (Metrics, *RunTrace, error) {
	trace, err := RunWorkload(ctx, core, prog, w)
	if err != nil {
		return Metrics{}, nil, err
	}
	pw := power.Analyze(core.N, lib, place, trace.Toggles, trace.Cycles, clockHz, lib.VNominal)
	st := core.N.Stats()
	return Metrics{Gates: st.Gates, Dffs: st.Dffs, Timing: timing, Power: pw}, trace, nil
}

// clockHz is the operating frequency of the paper's evaluation (100 MHz).
const clockHz = 100e6

// Tailor produces a bespoke design for one application. The context
// bounds the whole flow: cancellation or a deadline aborts the analysis
// and the workload runs at the next hot-loop check, surfacing as a
// *FlowError wrapping the context error.
func Tailor(ctx context.Context, prog *asm.Program, w *Workload, opts Options) (*Result, error) {
	return tailor(ctx, []*asm.Program{prog}, []*Workload{w}, opts, false)
}

// TailorMulti produces a bespoke design supporting all given applications
// (the union of their exercisable gates, per the paper's Section 3.5).
func TailorMulti(ctx context.Context, progs []*asm.Program, ws []*Workload, opts Options) (*Result, error) {
	return tailor(ctx, progs, ws, opts, false)
}

// TailorCoarse removes only wholly-unusable modules (the Xtensa-like
// module-level customization of Figure 12), guided by the same gate
// activity analysis.
func TailorCoarse(ctx context.Context, prog *asm.Program, w *Workload, opts Options) (*Result, error) {
	return tailor(ctx, []*asm.Program{prog}, []*Workload{w}, opts, true)
}

func tailor(ctx context.Context, progs []*asm.Program, ws []*Workload, opts Options, coarse bool) (res *Result, err error) {
	stage := "init"
	defer guard(&stage, &err)
	if len(progs) == 0 {
		return nil, stageErr(stage, netlist.None, fmt.Errorf("core: no programs"))
	}
	for i, p := range progs {
		if p == nil {
			return nil, stageErr(stage, netlist.None, fmt.Errorf("core: program %d is nil", i))
		}
	}
	for i, w := range ws {
		if err := w.Validate(); err != nil {
			return nil, stageErr(stage, netlist.None, fmt.Errorf("workload %d: %w", i, err))
		}
	}
	lib := opts.Lib
	if lib == nil {
		lib = cells.TSMC65()
	}
	if opts.Induct {
		opts.Prove = true
	}
	if opts.Prove {
		opts.Sym.RecordDomains = true
	}

	// Gate activity analysis per program; the union of toggled gates
	// must be retained (gate IDs align across builds: elaboration is
	// deterministic).
	baseline := cpu.Base()
	baseline.LoadProgram(progs[0].Bytes, progs[0].Origin)

	stage = "analysis"
	union, err := UnionAnalysis(ctx, progs, opts.Sym)
	if err != nil {
		return nil, stageErr(stage, netlist.None, err)
	}
	if testHookAnalysis != nil {
		testHookAnalysis(union)
	}

	// Baseline signoff. The clock is set so the baseline just meets
	// timing unless overridden. Placement and timing do not depend on
	// the program, so they come from the library's shared template.
	stage = "baseline-signoff"
	tmpl, err := templateFor(lib)
	if err != nil {
		return nil, stageErr(stage, netlist.None, err)
	}
	clockPs, baseTiming := tmpl.clockPs, tmpl.timing
	if opts.ClockPs != 0 {
		clockPs = opts.ClockPs
		if baseTiming, err = sta.Analyze(baseline.N, lib, tmpl.place, clockPs, blockPaths(baseline)); err != nil {
			return nil, stageErr(stage, netlist.None, err)
		}
	}
	baseMet, _, err := measure(ctx, baseline, progs[0], wsAt(ws, 0), lib, tmpl.place, baseTiming)
	if err != nil {
		return nil, stageErr(stage, netlist.None, fmt.Errorf("baseline workload: %w", err))
	}

	// Cut and stitch on a clone.
	stage = "cut"
	bespoke := baseline.Clone()
	toggled := union.Toggled
	if coarse {
		toggled = coarsen(bespoke.N, toggled)
	}
	cutStats, err := cut.Apply(bespoke.N, toggled, union.ConstVal)
	if err != nil {
		gate := netlist.None
		var ge *cut.GateError
		if errors.As(err, &ge) {
			gate = ge.Gate
		}
		return nil, stageErr(stage, gate, err)
	}
	stage = "resynth"
	synthStats := synth.Optimize(bespoke.N, keepAlive(bespoke))
	if testHookPostSynth != nil {
		testHookPostSynth(bespoke.N)
	}

	// Static gate: no netlist leaves the flow without passing lint. The
	// dynamic signoff below can only catch defects the quick workload
	// happens to toggle; the analyzers are input-independent.
	stage = "lint"
	if lerr := lintGate(ctx, bespoke); lerr != nil {
		gate := netlist.None
		var le *LintError
		if errors.As(lerr, &le) {
			gate = le.Gate()
		}
		return nil, stageErr(stage, gate, lerr)
	}

	// Formal gate: prove the recorded constants and the equivalence of
	// the transformation before spending any signoff effort.
	var proofs []ProofResult
	if opts.Prove {
		stage = "prove"
		proofs, err = proveGate(ctx, bespoke, progs, union, opts)
		if err != nil {
			gate := netlist.None
			var pe *equiv.ProofError
			if errors.As(err, &pe) {
				gate = pe.Gate
			}
			return nil, stageErr(stage, gate, err)
		}
	}

	stage = "bespoke-signoff"
	besPlace := layout.Place(bespoke.N, lib)
	besTiming, err := sta.Analyze(bespoke.N, lib, besPlace, clockPs, blockPaths(bespoke))
	if err != nil {
		return nil, stageErr(stage, netlist.None, err)
	}
	besMet, besTrace, err := measure(ctx, bespoke, progs[0], wsAt(ws, 0), lib, besPlace, besTiming)
	if err != nil {
		return nil, stageErr(stage, netlist.None, fmt.Errorf("bespoke workload: %w", err))
	}
	// Multi-program designs must run every application.
	stage = "multi-check"
	for i := 1; i < len(progs); i++ {
		if _, err := RunWorkload(ctx, bespoke, progs[i], wsAt(ws, i)); err != nil {
			return nil, stageErr(stage, netlist.None, fmt.Errorf("bespoke workload %d: %w", i, err))
		}
	}

	// Reliability gate: identical SET campaigns on both designs, failed
	// closed on the bespoke design's visible-fault budget.
	var resil *ResilienceReport
	if opts.Resilience != nil {
		stage = "resilience"
		resil, err = resilienceGate(ctx, baseline, bespoke, progs[0], wsAt(ws, 0), *opts.Resilience)
		if err != nil {
			return nil, stageErr(stage, netlist.None, err)
		}
	}

	// Exploit exposed slack: rerun power at Vmin on the signoff placement.
	stage = "vmin"
	pwVmin := power.Analyze(bespoke.N, lib, besPlace, besTrace.Toggles, besTrace.Cycles, clockHz, besMet.Timing.Vmin)

	res = &Result{
		Baseline:      baseMet,
		Bespoke:       besMet,
		BespokeAtVmin: pwVmin,
		Analysis:      union,
		CutStats:      cutStats,
		SynthStats:    synthStats,
		Proofs:        proofs,
		Resilience:    resil,
		BespokeCore:   bespoke,
		BaselineCore:  baseline,
	}
	res.GateSavings = 1 - float64(besMet.Gates)/float64(baseMet.Gates)
	res.AreaSavings = 1 - besMet.Power.AreaUm2/baseMet.Power.AreaUm2
	res.PowerSavings = 1 - besMet.Power.TotalUW/baseMet.Power.TotalUW
	res.PowerSavingsVmin = 1 - pwVmin.TotalUW/baseMet.Power.TotalUW
	return res, nil
}

func wsAt(ws []*Workload, i int) *Workload {
	if i < len(ws) {
		return ws[i]
	}
	return nil
}

// UnionAnalysis runs the activity analysis for every program and returns
// the union of toggleable gates (a gate survives if any program needs it).
// The per-program analyses are independent and fan out across the shared
// worker pool; the union is merged sequentially in program order, so the
// result is deterministic. Panics from malformed programs are recovered
// into a *FlowError.
func UnionAnalysis(ctx context.Context, progs []*asm.Program, opts symexec.Options) (union *symexec.Result, err error) {
	stage := "analysis"
	defer guard(&stage, &err)
	analyses := make([]*symexec.Result, len(progs))
	perr := parallel.ForEach(ctx, 0, len(progs), func(i int) error {
		res, _, err := analyzeGuarded(ctx, progs[i], opts)
		if err != nil {
			return err
		}
		analyses[i] = res
		return nil
	})
	if perr != nil {
		return nil, perr
	}
	for _, res := range analyses {
		if union == nil {
			union = res
			continue
		}
		for i := range union.Toggled {
			if res.Toggled[i] {
				union.Toggled[i] = true
			} else if !union.Toggled[i] && union.ConstVal[i] != res.ConstVal[i] {
				// Untoggled in both but at different constants: the
				// gate is static per application but not across them;
				// it must be kept.
				union.Toggled[i] = true
			}
		}
		union.Paths += res.Paths
		union.Cycles += res.Cycles
		union.Merges += res.Merges
		union.BusDomains = mergeDomains(union.BusDomains, res.BusDomains)
	}
	return union, nil
}

// mergeDomains unions per-bus value sets across programs. The union of
// over-approximations is an over-approximation of every program's
// reachable set, so proofs under the merged domain stay sound for each
// individual program.
func mergeDomains(a, b []symexec.BusDomain) []symexec.BusDomain {
	if len(a) == 0 {
		return b
	}
	byName := make(map[string]int, len(a))
	for i := range a {
		byName[a[i].Name] = i
	}
	for _, d := range b {
		i, ok := byName[d.Name]
		if !ok {
			a = append(a, d)
			byName[d.Name] = len(a) - 1
			continue
		}
		m := &a[i]
		if d.Exceeded {
			m.Exceeded = true
		}
		if m.Exceeded {
			m.Words = nil
			continue
		}
		seen := make(map[uint32]struct{}, len(m.Words))
		for _, w := range m.Words {
			seen[uint32(w.Val)|uint32(w.Mask)<<16] = struct{}{}
		}
		for _, w := range d.Words {
			key := uint32(w.Val) | uint32(w.Mask)<<16
			if _, dup := seen[key]; dup {
				continue
			}
			if len(m.Words) >= symexec.MaxDomainWords {
				m.Exceeded = true
				m.Words = nil
				break
			}
			seen[key] = struct{}{}
			m.Words = append(m.Words, w)
		}
	}
	return a
}

// analyzeGuarded wraps one worker's symexec.Analyze call so a panic from
// a malformed program inside the pool is converted to a *FlowError on
// that worker instead of crossing goroutine boundaries.
func analyzeGuarded(ctx context.Context, p *asm.Program, opts symexec.Options) (res *symexec.Result, c *cpu.Core, err error) {
	stage := "analysis"
	defer guard(&stage, &err)
	return symexec.Analyze(ctx, p, opts)
}

// coarsen widens a gate-level toggled map to module granularity: a module
// keeps all its gates unless none of them can toggle (the paper's
// "coarse-grained module-level bespoke design").
func coarsen(n *netlist.Netlist, toggled []bool) []bool {
	out := make([]bool, len(toggled))
	copy(out, toggled)
	for _, gates := range n.GatesByModule() {
		any := false
		for _, g := range gates {
			if toggled[g] {
				any = true
				break
			}
		}
		if any {
			for _, g := range gates {
				out[g] = true
			}
		}
	}
	return out
}
