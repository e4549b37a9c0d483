package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/cells"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/induct"
	"bespoke/internal/isasim"
	"bespoke/internal/layout"
	"bespoke/internal/lint"
	"bespoke/internal/netlist"
	"bespoke/internal/power"
	"bespoke/internal/sta"
	"bespoke/internal/symexec"
	"bespoke/internal/synth"
)

// flowInput is one benchmark program with its generated workload and the
// output the golden ISA model produces on it.
type flowInput struct {
	name   string
	wseed  uint64
	prog   *asm.Program
	w      *core.Workload
	golden []uint16
}

// prepareInputs assembles the named benchmarks (the whole catalog when
// names is empty), generates each workload from wseed and runs it on the
// ISA model for the golden output.
func prepareInputs(names []string, wseed uint64) ([]flowInput, error) {
	var out []flowInput
	for _, b := range bench.All() {
		if len(names) > 0 && !slices.Contains(names, b.Name) {
			continue
		}
		p, err := asm.Assemble(b.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		w := b.Workload(wseed)
		m := isasim.New(p.Bytes, p.Origin)
		if err := bench.RunISAWorkload(m, w); err != nil {
			return nil, fmt.Errorf("%s: golden run: %w", b.Name, err)
		}
		out = append(out, flowInput{name: b.Name, wseed: wseed, prog: p, w: w, golden: m.Out})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark named %v", names)
	}
	return out, nil
}

// flowJob is one cold flow of a workload: an input and the options it is
// tailored with. mode names the options in fingerprints and errors.
type flowJob struct {
	in   flowInput
	mode string
	opts core.Options
}

func (j flowJob) String() string { return j.mode + "/" + j.in.name }

// flowOutcome is what the fingerprint records about one flow, gathered
// either from core.Tailor's Result or from the traced stage replay.
type flowOutcome struct {
	base, bespoke core.Metrics
	vminUW        float64
	analysis      *symexec.Result
	cut           cut.Stats
	synth         synth.Stats
	proofs        []core.ProofResult
	run           *core.RunTrace // the bespoke core's workload run
}

func outcomeOf(res *core.Result, run *core.RunTrace) *flowOutcome {
	return &flowOutcome{
		base: res.Baseline, bespoke: res.Bespoke, vminUW: res.BespokeAtVmin.TotalUW,
		analysis: res.Analysis, cut: res.CutStats, synth: res.SynthStats,
		proofs: res.Proofs, run: run,
	}
}

// verify checks the outcome against the golden output and the proof
// requirements, and returns its fingerprint statistics.
func (o *flowOutcome) verify(j flowJob) (static, seeded prints, err error) {
	if !slices.Equal(o.run.Out, j.in.golden) {
		return nil, nil, fmt.Errorf("bespoke output %v differs from the ISA model's %v", o.run.Out, j.in.golden)
	}
	if j.opts.Prove || j.opts.Induct {
		if len(o.proofs) == 0 {
			return nil, nil, fmt.Errorf("no proof results")
		}
		for _, p := range o.proofs {
			if p.Claims.Refuted != 0 || !p.Miter.Equivalent {
				return nil, nil, fmt.Errorf("program %d: %d refuted claims, miter equivalent=%t",
					p.Program, p.Claims.Refuted, p.Miter.Equivalent)
			}
		}
	}
	pre := j.String() + "/"
	a := o.analysis
	static = flowStats{
		baseGates: o.base.Gates, gates: o.bespoke.Gates, baseDffs: o.base.Dffs, dffs: o.bespoke.Dffs,
		symCycles: a.Cycles, paths: a.Paths, merges: a.Merges,
		cut: o.cut.Cut, kept: o.cut.Kept,
		folded: o.synth.Folded, collapsed: o.synth.Collapsed, dead: o.synth.Dead, passes: o.synth.Passes,
		baseCriticalPs: o.base.Timing.CriticalPs, criticalPs: o.bespoke.Timing.CriticalPs,
		baseAreaUm2: o.base.Power.AreaUm2, areaUm2: o.bespoke.Power.AreaUm2,
	}.prints(pre)
	for _, p := range o.proofs {
		c, m := p.Claims, p.Miter
		static[fmt.Sprintf("%sproof%d", pre, p.Program)] = fmt.Sprintf(
			"structural=%d sat=%d induct=%d assumed=%d refuted=%d equivalent=%t obligations=%d miter_assumed=%d invariants=%d",
			c.ProvedStructural, c.ProvedSAT, c.ProvedInduct, c.Assumed, c.Refuted,
			m.Equivalent, m.Obligations, m.AssumedClaims, m.Invariants)
		if s := p.Induct; s != nil {
			static[fmt.Sprintf("%sinduct%d", pre, p.Program)] = fmt.Sprintf(
				"k=%d invariants=%d core=%d candidates=%d dropped=%d queries=%d",
				s.K, s.Invariants, s.Core, s.Candidates, s.Dropped, s.Queries)
		}
	}
	seeded = prints{
		pre + "cycles": fmt.Sprint(o.run.Cycles),
		pre + "power":  powerPrint(o.base.Power.TotalUW, o.bespoke.Power.TotalUW, o.vminUW),
	}
	return static, seeded, nil
}

// flowStats are the statistics of one flow that depend on the program
// only, whether read from core.Tailor's Result, the traced replay or a
// serving response.
type flowStats struct {
	baseGates, gates, baseDffs, dffs           int
	symCycles                                  uint64
	paths, merges                              int
	cut, kept, folded, collapsed, dead, passes int
	baseCriticalPs, criticalPs                 float64
	baseAreaUm2, areaUm2                       float64
}

func (s flowStats) prints(pre string) prints {
	return prints{
		pre + "netlist":  fmt.Sprintf("gates=%d/%d dffs=%d/%d", s.baseGates, s.gates, s.baseDffs, s.dffs),
		pre + "analysis": fmt.Sprintf("cycles=%d paths=%d merges=%d", s.symCycles, s.paths, s.merges),
		pre + "cut": fmt.Sprintf("cut=%d kept=%d folded=%d collapsed=%d dead=%d passes=%d",
			s.cut, s.kept, s.folded, s.collapsed, s.dead, s.passes),
		pre + "timing": fmt.Sprintf("critical_ps=%.3f/%.3f area_um2=%.3f/%.3f",
			s.baseCriticalPs, s.criticalPs, s.baseAreaUm2, s.areaUm2),
	}
}

// powerPrint formats signoff power at the fingerprint's fixed precision.
func powerPrint(baseUW, bespokeUW, vminUW float64) string {
	return fmt.Sprintf("uw=%.4f/%.4f vmin_uw=%.4f", baseUW, bespokeUW, vminUW)
}

// runTailor is one untraced cold flow. It returns the wall and process
// CPU time of core.Tailor alone; the output check afterwards is not timed.
func runTailor(ctx context.Context, j flowJob, chk *checker) (wall, cpu time.Duration, err error) {
	t0, c0 := time.Now(), cpuTime()
	res, err := core.Tailor(ctx, j.in.prog, j.in.w, j.opts)
	wall, cpu = time.Since(t0), cpuTime()-c0
	if err != nil {
		return wall, cpu, err
	}
	run, err := core.RunWorkload(ctx, res.BespokeCore, j.in.prog, j.in.w)
	if err != nil {
		return wall, cpu, fmt.Errorf("bespoke workload: %w", err)
	}
	static, seeded, err := outcomeOf(res, run).verify(j)
	if err != nil {
		return wall, cpu, err
	}
	return wall, cpu, chk.check(j.in.wseed, static, seeded)
}

// Constants of core.Tailor the replay needs: the operating clock, the
// memory macro access time, and the clock's margin over the baseline's
// critical path.
const (
	clockHz     = 100e6
	memAccessPs = 1200
	clockMargin = 1.02
)

// flowCounts accumulates the per-layer counts of traced flows, read from
// the structs the layer calls return.
type flowCounts struct {
	symCycles, symPaths, symMerges        float64
	simCycles                             float64
	cutCells, synthPasses                 float64
	satQueries, conflicts, claims, proved float64
	assumed, obligations                  float64
	rounds, iQueries, iConflicts          float64
	candidates, dropped, invariants       float64
}

// mirrorTailor replays core.Tailor (single program, derived clock, no
// resilience stage) stage by stage through the same public calls, with a
// span around each call. The stage order and arguments follow
// internal/core's tailor; the fingerprint comparison with core.Tailor's
// result catches any drift between the two.
func mirrorTailor(ctx context.Context, tr *tracer, j flowJob, fc *flowCounts) (*flowOutcome, error) {
	opts := j.opts
	if opts.Induct {
		opts.Prove = true
	}
	if opts.Prove {
		opts.Sym.RecordDomains = true
	}
	lib := cells.TSMC65()
	prog := j.in.prog
	var err error

	var baseline *cpu.Core
	tr.do("cpu.build", func() {
		baseline = cpu.Build()
		baseline.LoadProgram(prog.Bytes, prog.Origin)
	})

	var union *symexec.Result
	tr.do("symexec.analyze", func() { union, err = core.UnionAnalysis(ctx, []*asm.Program{prog}, opts.Sym) })
	if err != nil {
		return nil, err
	}
	fc.symCycles += float64(union.Cycles)
	fc.symPaths += float64(union.Paths)
	fc.symMerges += float64(union.Merges)

	var place *layout.Result
	tr.do("layout.place", func() { place = layout.Place(baseline.N, lib) })
	var t sta.Report
	tr.do("sta.analyze", func() { t, err = sta.Analyze(baseline.N, lib, place, 0, blockPaths(baseline)) })
	if err != nil {
		return nil, err
	}
	clockPs := t.CriticalPs * clockMargin
	o := &flowOutcome{analysis: union}
	if o.base, _, err = mirrorMeasure(ctx, tr, baseline, j.in, lib, clockPs, fc); err != nil {
		return nil, fmt.Errorf("baseline workload: %w", err)
	}

	var bespoke *cpu.Core
	tr.do("cpu.clone", func() { bespoke = baseline.Clone() })
	tr.do("cut.apply", func() { o.cut, err = cut.Apply(bespoke.N, union.Toggled, union.ConstVal) })
	if err != nil {
		return nil, err
	}
	fc.cutCells += float64(o.cut.Cut)
	tr.do("synth.optimize", func() { o.synth = synth.Optimize(bespoke.N, keepAlive(bespoke)) })
	fc.synthPasses += float64(o.synth.Passes)

	var rep *lint.Report
	tr.do("lint.flow", func() { rep, err = core.LintCore(ctx, bespoke, lint.Config{}) })
	if err != nil {
		return nil, err
	}
	if bad := rep.AtLeast(lint.Error); len(bad) > 0 {
		return nil, &core.LintError{Findings: bad}
	}

	if opts.Prove {
		id := tr.begin("prove")
		o.proofs, err = mirrorProve(ctx, tr, bespoke, prog, union, opts, fc)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}

	if o.bespoke, o.run, err = mirrorMeasure(ctx, tr, bespoke, j.in, lib, clockPs, fc); err != nil {
		return nil, fmt.Errorf("bespoke workload: %w", err)
	}
	tr.do("layout.place", func() { place = layout.Place(bespoke.N, lib) })
	tr.do("power.analyze", func() {
		o.vminUW = power.Analyze(bespoke.N, lib, place, o.run.Toggles, o.run.Cycles, clockHz, o.bespoke.Timing.Vmin).TotalUW
	})
	return o, nil
}

// mirrorMeasure replays core's signoff of one design point.
func mirrorMeasure(ctx context.Context, tr *tracer, c *cpu.Core, in flowInput, lib *cells.Library, clockPs float64, fc *flowCounts) (core.Metrics, *core.RunTrace, error) {
	var err error
	var place *layout.Result
	tr.do("layout.place", func() { place = layout.Place(c.N, lib) })
	var timing sta.Report
	tr.do("sta.analyze", func() { timing, err = sta.Analyze(c.N, lib, place, clockPs, blockPaths(c)) })
	if err != nil {
		return core.Metrics{}, nil, err
	}
	var run *core.RunTrace
	tr.do("sim.run", func() { run, err = core.RunWorkload(ctx, c, in.prog, in.w) })
	if err != nil {
		return core.Metrics{}, nil, err
	}
	fc.simCycles += float64(run.Cycles)
	var pw power.Report
	tr.do("power.analyze", func() { pw = power.Analyze(c.N, lib, place, run.Toggles, run.Cycles, clockHz, lib.VNominal) })
	st := c.N.Stats()
	return core.Metrics{Gates: st.Gates, Dffs: st.Dffs, Timing: timing, Power: pw}, run, nil
}

// mirrorProve replays core's formal gate for one program.
func mirrorProve(ctx context.Context, tr *tracer, bespoke *cpu.Core, prog *asm.Program, union *symexec.Result, opts core.Options, fc *flowCounts) ([]core.ProofResult, error) {
	var err error
	var base *cpu.Core
	tr.do("cpu.build", func() {
		base = cpu.Build()
		base.LoadProgram(prog.Bytes, prog.Origin)
	})
	var env *equiv.Env
	tr.do("equiv.env", func() { env, err = equiv.NewCoreEnv(base, union) })
	if err != nil {
		return nil, err
	}
	var isum *core.InductSummary
	if opts.Induct {
		var spec *induct.Spec
		tr.do("induct.spec", func() { spec, err = induct.NewCoreSpec(base, union, induct.DefaultSampleCycles) })
		if err != nil {
			return nil, err
		}
		var ires *induct.Result
		tr.do("induct.prove", func() {
			ires, err = induct.Prove(ctx, spec, env.Claims, induct.Options{K: opts.InductK, QueryBudget: opts.ProveOpts.QueryBudget})
		})
		if err != nil {
			return nil, err
		}
		env.Invariants = ires.Invariants
		env.InductCore = ires.Core
		isum = &core.InductSummary{
			K: ires.K, Invariants: len(ires.Invariants), Core: len(ires.Core),
			Candidates: ires.Candidates, Dropped: ires.Dropped, Queries: ires.Queries,
		}
		fc.rounds += float64(ires.Rounds)
		fc.iQueries += float64(ires.Queries)
		fc.iConflicts += float64(ires.Conflicts)
		fc.candidates += float64(ires.Candidates)
		fc.dropped += float64(ires.Dropped)
		fc.invariants += float64(len(ires.Invariants))
	}
	var rep *equiv.Report
	tr.do("equiv.claims", func() { rep, err = equiv.ProveClaims(ctx, env, opts.ProveOpts) })
	if err != nil {
		return nil, err
	}
	if rep.Refuted > 0 {
		return nil, fmt.Errorf("%d claims refuted", rep.Refuted)
	}
	var mres *equiv.MiterResult
	tr.do("equiv.miter", func() { mres, err = equiv.ProveMiter(ctx, env, bespoke.N, rep, opts.ProveOpts) })
	if err != nil {
		return nil, err
	}
	fc.satQueries += float64(rep.SATQueries)
	fc.conflicts += float64(rep.Conflicts)
	fc.claims += float64(len(rep.Results))
	fc.proved += float64(rep.ProvedStructural + rep.ProvedSAT + rep.ProvedInduct)
	fc.assumed += float64(rep.Assumed)
	fc.obligations += float64(mres.Obligations)
	return []core.ProofResult{{Program: 0, Claims: rep, Miter: mres, Induct: isum}}, nil
}

// blockPaths and keepAlive restate core's memory macro arcs and the nets
// re-synthesis must keep.
func blockPaths(c *cpu.Core) []sta.BlockPath {
	return []sta.BlockPath{
		{Ins: c.ROM.Inputs(), Outs: c.ROM.Outputs(), DelayPs: memAccessPs},
		{Ins: c.RAM.Inputs(), Outs: c.RAM.Outputs(), DelayPs: memAccessPs},
	}
}

func keepAlive(c *cpu.Core) []netlist.GateID {
	keep := append([]netlist.GateID(nil), c.ROM.Inputs()...)
	return append(keep, c.RAM.Inputs()...)
}
