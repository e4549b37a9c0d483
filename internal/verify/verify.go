// Package verify implements the paper's two-pronged verification
// (Section 5.1) and the coverage-guided input generation that stands in
// for KLEE (Table 3):
//
//  1. X-based verification: the input-independent activity analysis is
//     re-run on the bespoke design; every gate the original analysis
//     declared untoggleable must still be constant, and the observable
//     output behavior of the tree must be reachable.
//  2. Input-based verification: concrete inputs generated by a
//     coverage-guided search over the ISA model run on both the original
//     and the bespoke gate-level designs; outputs, final data memory and
//     cycle counts must match exactly.
package verify

import (
	"context"
	"fmt"
	"time"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/isasim"
	"bespoke/internal/logic"
	"bespoke/internal/msp430"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

// Coverage summarizes how well a set of inputs exercises a program.
type Coverage struct {
	// Lines is executed instructions / total instructions.
	Lines float64
	// Branches is executed conditional branches / total conditional
	// branches.
	Branches float64
	// BranchDirs is taken+untaken directions observed / (2 * branches).
	BranchDirs float64
	// Paths is the number of distinct branch-signature paths.
	Paths int
}

// Report is one benchmark's Table 3 row.
type Report struct {
	Bench      string
	XTime      time.Duration // input-independent analysis runtime
	InputTime  time.Duration // total input-based simulation runtime
	NumInputs  int
	Coverage   Coverage
	GateCov    float64 // fraction of bespoke gates toggled by the inputs
	Equivalent bool
}

// branchKey identifies one conditional branch site.
type branchKey uint16

// covTracker accumulates coverage over ISA runs.
type covTracker struct {
	prog      *bench.Benchmark
	instSeen  map[uint16]bool
	brTaken   map[branchKey]bool
	brUntaken map[branchKey]bool
	paths     map[string]bool
	condTotal int
	instTotal int
}

func newCovTracker(b *bench.Benchmark) *covTracker {
	p := b.MustProg()
	t := &covTracker{
		prog:      b,
		instSeen:  map[uint16]bool{},
		brTaken:   map[branchKey]bool{},
		brUntaken: map[branchKey]bool{},
		paths:     map[string]bool{},
	}
	for _, addr := range p.InstAddrs {
		t.instTotal++
		in := p.Insts[addr]
		if in.Op.IsJump() && in.Op != msp430.JMP {
			t.condTotal++
		}
	}
	return t
}

// run executes one workload on the ISA model, recording coverage. It
// returns an error if the machine misbehaves.
func (t *covTracker) run(w *core.Workload) error {
	p := t.prog.MustProg()
	m := isasim.New(p.Bytes, p.Origin)
	stim := core.NewStimulus(w)
	if err := stim.PreloadRAM(func(a, v uint16) { m.LoadRAMWords(a, []uint16{v}) }); err != nil {
		return err
	}
	max := t.prog.MaxCycles
	if max == 0 {
		max = core.DefaultMaxCycles
	}
	setP1 := func(v uint16) { m.P1In = v }
	var sig []byte
	for !m.Halted && m.Cycles < max {
		stim.Apply(m.Cycles, setP1, m.SetIRQ)
		pc := m.Regs[msp430.PC]
		in, n, ferr := m.Fetch()
		if err := m.Step(); err != nil {
			if err == isasim.ErrHalted {
				break
			}
			return err
		}
		if m.Regs[msp430.PC] == pc && !(in.Op == msp430.JMP && in.Offset == -1) {
			// The interrupt path replaced the fetch: don't classify.
			continue
		}
		if ferr == nil {
			t.instSeen[pc] = true
			if in.Op.IsJump() && in.Op != msp430.JMP {
				taken := m.Regs[msp430.PC] != pc+uint16(2*n)
				k := branchKey(pc)
				if taken {
					t.brTaken[k] = true
					sig = append(sig, 1)
				} else {
					t.brUntaken[k] = true
					sig = append(sig, 0)
				}
			}
		}
	}
	t.paths[string(sig)] = true
	return nil
}

// coverage snapshots the current totals.
func (t *covTracker) coverage() Coverage {
	var c Coverage
	if t.instTotal > 0 {
		c.Lines = float64(len(t.instSeen)) / float64(t.instTotal)
	}
	execBr, dirs := 0, 0
	for _, addr := range t.prog.MustProg().InstAddrs {
		in := t.prog.MustProg().Insts[addr]
		if !in.Op.IsJump() || in.Op == msp430.JMP {
			continue
		}
		k := branchKey(addr)
		if t.brTaken[k] || t.brUntaken[k] {
			execBr++
		}
		if t.brTaken[k] {
			dirs++
		}
		if t.brUntaken[k] {
			dirs++
		}
	}
	if t.condTotal > 0 {
		c.Branches = float64(execBr) / float64(t.condTotal)
		c.BranchDirs = float64(dirs) / float64(2*t.condTotal)
	}
	c.Paths = len(t.paths)
	return c
}

// score is the hill-climbing objective.
func (t *covTracker) score() float64 {
	c := t.coverage()
	return c.Lines + c.Branches + c.BranchDirs + 0.001*float64(c.Paths)
}

// GenInputs is the KLEE substitute: a coverage-guided search that keeps
// workloads which improve line/branch/direction coverage. It returns the
// selected workloads and the final coverage.
func GenInputs(b *bench.Benchmark, maxInputs int) ([]*core.Workload, Coverage, error) {
	t := newCovTracker(b)
	var kept []*core.Workload
	best := 0.0
	stale := 0
	for seed := uint64(1); len(kept) < maxInputs && stale < 40; seed++ {
		w := b.Workload(seed)
		if err := t.run(w); err != nil {
			return nil, Coverage{}, fmt.Errorf("%s seed %d: %w", b.Name, seed, err)
		}
		if s := t.score(); s > best {
			best = s
			kept = append(kept, w)
			stale = 0
		} else {
			stale++
		}
	}
	if len(kept) == 0 {
		kept = append(kept, b.Workload(1))
	}
	return kept, t.coverage(), nil
}

// XVerify re-runs the activity analysis on the bespoke core and checks it
// against the original analysis: analysis must terminate, no gate cut
// from the design may be toggleable in the bespoke design (they are
// constants there, so any disagreement indicates a broken cut), and every
// surviving constant pseudo-cell must hold the value the original
// analysis claimed (a differing value means the cut stitched the wrong
// constant into the fanout).
func XVerify(ctx context.Context, bespoke *cpu.Core, orig *symexec.Result) (time.Duration, error) {
	for i := range bespoke.N.Gates {
		var v logic.V
		switch bespoke.N.Gates[i].Kind {
		case netlist.Const0:
			v = logic.Zero
		case netlist.Const1:
			v = logic.One
		default:
			continue
		}
		if !orig.Toggled[i] && orig.ConstVal[i].Known() && orig.ConstVal[i] != v {
			return 0, fmt.Errorf("verify: gate %d is tied to %s but the analysis proved it constant %s",
				i, v, orig.ConstVal[i])
		}
	}
	t0 := time.Now()
	res, err := symexec.AnalyzeOn(ctx, bespoke, symexec.Options{})
	if err != nil {
		return time.Since(t0), fmt.Errorf("verify: X-based analysis of bespoke design: %w", err)
	}
	d := time.Since(t0)
	for i := range res.Toggled {
		if res.Toggled[i] && !orig.Toggled[i] {
			return d, fmt.Errorf("verify: gate %d toggles in the bespoke design but was declared untoggleable", i)
		}
	}
	return d, nil
}

// InputVerify runs every workload on both designs and compares the
// observable outputs, the final data memory, and the cycle counts.
// It also returns the fraction of bespoke gates toggled.
func InputVerify(ctx context.Context, baseline, bespoke *cpu.Core, b *bench.Benchmark, workloads []*core.Workload) (time.Duration, float64, error) {
	p := b.MustProg()
	t0 := time.Now()
	touched := make([]bool, len(bespoke.N.Gates))
	for i, w := range workloads {
		bt, err := core.RunWorkload(ctx, baseline, p, w)
		if err != nil {
			return 0, 0, fmt.Errorf("baseline input %d: %w", i, err)
		}
		st, err := core.RunWorkload(ctx, bespoke, p, w)
		if err != nil {
			return 0, 0, fmt.Errorf("bespoke input %d: %w", i, err)
		}
		if len(bt.Out) != len(st.Out) {
			return 0, 0, fmt.Errorf("input %d: output lengths differ (%d vs %d)", i, len(bt.Out), len(st.Out))
		}
		for j := range bt.Out {
			if bt.Out[j] != st.Out[j] {
				return 0, 0, fmt.Errorf("input %d: out[%d] = %#x vs %#x", i, j, bt.Out[j], st.Out[j])
			}
		}
		if bt.Cycles != st.Cycles {
			return 0, 0, fmt.Errorf("input %d: cycles %d vs %d (performance must not change)", i, bt.Cycles, st.Cycles)
		}
		for a := msp430.RAMStart; a < msp430.RAMEnd; a += 2 {
			bw := baseline.RAM.Word((a - msp430.RAMStart) / 2)
			sw := bespoke.RAM.Word((a - msp430.RAMStart) / 2)
			if bw.Known() && sw.Known() && bw.Val != sw.Val {
				return 0, 0, fmt.Errorf("input %d: ram[%#04x] = %#x vs %#x", i, a, bw.Val, sw.Val)
			}
		}
		for g, n := range st.Toggles {
			if n > 0 {
				touched[g] = true
			}
		}
	}
	count, total := 0, 0
	for i := range bespoke.N.Gates {
		k := bespoke.N.Gates[i].Kind
		if k.NumInputs() == 0 && !k.IsSeq() {
			continue // const/input pseudo-cells
		}
		total++
		if touched[i] {
			count++
		}
	}
	cov := 0.0
	if total > 0 {
		cov = float64(count) / float64(total)
	}
	return time.Since(t0), cov, nil
}

// Run produces a full Table 3 row for one benchmark: generate inputs,
// tailor, X-verify, input-verify.
func Run(ctx context.Context, b *bench.Benchmark, maxInputs int) (*Report, error) {
	p := b.MustProg()
	workloads, cov, err := GenInputs(b, maxInputs)
	if err != nil {
		return nil, err
	}
	res, err := core.Tailor(ctx, p, workloads[0], core.Options{})
	if err != nil {
		return nil, err
	}
	xt, err := XVerify(ctx, res.BespokeCore, res.Analysis)
	if err != nil {
		return nil, err
	}
	it, gcov, err := InputVerify(ctx, res.BaselineCore, res.BespokeCore, b, workloads)
	rep := &Report{
		Bench:      b.Name,
		XTime:      xt,
		InputTime:  it,
		NumInputs:  len(workloads),
		Coverage:   cov,
		GateCov:    gcov,
		Equivalent: err == nil,
	}
	if err != nil {
		return rep, err
	}
	return rep, nil
}
