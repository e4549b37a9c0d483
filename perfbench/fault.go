package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"bespoke/internal/bench"
	"bespoke/internal/bitsim"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/faultinject"
	"bespoke/internal/isasim"
	"bespoke/internal/netlist"
)

// Fault-campaign workload shape: a short program and a long one (tea8
// runs 2,546 cycles), each with an SEU sweep that strikes every flip-flop
// once and a seeded SET campaign of four 63-fault batches, per pass.
// Every pass draws fresh strike times and SET sites, so a run averages
// over more batches the longer it measures.
//
// Two choices keep the work per pass comparable between seeds. A batch
// runs until its last lane retires, so with the library's default hang
// bound (2x golden cycles + 1024) the one or two hung lanes a sample
// happens to contain set the length of their whole batch; faulty runs
// are bounded at golden cycles + 1/hangMargin instead, and a run that
// overruns that is a hang. And SEUCampaign's sample (sites drawn with
// replacement) made the CPU time per injection differ by a third between
// seeds, so the SEU campaign is a sweep: every flip-flop once, each at a
// seeded cycle from its own slice of the golden run.
var faultPrograms = []string{"mult", "tea8"}

const (
	setFaults  = 4 * 63
	hangMargin = 4
	// faultPinnedPasses is how many passes per seed the fingerprint pins;
	// later passes are checked for a complete outcome partition only
	// (the library checks every batch's golden lane itself).
	faultPinnedPasses = 4
)

var campaignKinds = []string{"seu", "set"}

// faultSetup is the campaign workload's prepared inputs: the programs with
// their golden cycle counts, one base core and its flip-flops.
type faultSetup struct {
	ins    []flowInput
	golden []uint64
	core   *cpu.Core
	dffs   []netlist.GateID
	seed   uint64
}

func prepareFault(ctx context.Context, seed uint64) (*faultSetup, error) {
	ins, err := prepareInputs(faultPrograms, seed)
	if err != nil {
		return nil, err
	}
	fs := &faultSetup{ins: ins, core: cpu.Build(), seed: seed}
	for i := range fs.core.N.Gates {
		if fs.core.N.Gates[i].Kind == netlist.Dff {
			fs.dffs = append(fs.dffs, netlist.GateID(i))
		}
	}
	for _, in := range ins {
		g, err := faultinject.GoldenRun(ctx, fs.core, in.prog, in.w)
		if err != nil {
			return nil, err
		}
		fs.golden = append(fs.golden, g.Cycles)
	}
	return fs, nil
}

// campaign runs pass's SEU sweep or SET campaign on program i, on the
// default bit-parallel backend with one worker per CPU.
func (fs *faultSetup) campaign(ctx context.Context, i, pass int, kind string) (*faultinject.Report, error) {
	in := fs.ins[i]
	r := newRNG(fs.seed ^ 0xfa17 ^ uint64(pass)<<32 ^ uint64(i)<<16)
	opts := faultinject.Options{Workers: runtime.NumCPU(), MaxCycles: fs.golden[i] + fs.golden[i]/hangMargin, Seed: r.next()}
	if kind == "set" {
		return faultinject.SETCampaign(ctx, fs.core, in.prog, in.w, setFaults, opts)
	}
	return faultinject.Campaign(ctx, fs.core, in.prog, in.w, fs.seuSweep(r, fs.golden[i]), opts)
}

// seuSweep strikes every flip-flop once. The golden run is cut into as
// many equal slices as there are flip-flops, each flip-flop gets its own
// slice in a seeded order, and the strike cycle is drawn within it.
func (fs *faultSetup) seuSweep(r *rng, span uint64) []faultinject.Fault {
	n := uint64(len(fs.dffs))
	slice := make([]uint64, n)
	for k := range slice {
		slice[k] = uint64(k)
	}
	r.shuffle(len(slice), func(a, b int) { slice[a], slice[b] = slice[b], slice[a] })
	faults := make([]faultinject.Fault, n)
	for k, g := range fs.dffs {
		lo, hi := slice[k]*span/n, (slice[k]+1)*span/n
		cycle := lo
		if hi > lo {
			cycle += r.next() % (hi - lo)
		}
		faults[k] = faultinject.Fault{Gate: g, Transient: true, Cycle: cycle}
	}
	return faults
}

// checkCampaign validates a campaign's outcome partition and, on pinned
// passes, its outcome tallies (they depend on the workload and sampling
// seeds).
func (fs *faultSetup) checkCampaign(chk *checker, i, pass int, kind string, rep *faultinject.Report) error {
	want := setFaults
	if kind == "seu" {
		want = len(fs.dffs)
	}
	if rep.Injected != want {
		return fmt.Errorf("injected %d faults, want %d", rep.Injected, want)
	}
	if sum := rep.Masked + rep.Latched + rep.SDCs + rep.Hangs; sum != rep.Injected {
		return fmt.Errorf("outcomes sum to %d of %d injections", sum, rep.Injected)
	}
	if pass >= faultPinnedPasses {
		return nil
	}
	in := fs.ins[i]
	return chk.check(in.wseed, nil, prints{
		fmt.Sprintf("fault/%s/%s/pass%d", in.name, kind, pass): fmt.Sprintf(
			"sites=%d masked=%d latched=%d sdc=%d hang=%d batches=%d",
			rep.Sites, rep.Masked, rep.Latched, rep.SDCs, rep.Hangs, rep.Batches),
	})
}

// campaignSet runs every campaign of pass once, untraced, and returns the
// wall time of the whole set and the injections it made.
func (fs *faultSetup) campaignSet(ctx context.Context, pass int, chk *checker, t *tally) (time.Duration, int) {
	t0 := time.Now()
	injected := 0
	for i, in := range fs.ins {
		for _, kind := range campaignKinds {
			rep, err := fs.campaign(ctx, i, pass, kind)
			if err == nil {
				injected += rep.Injected
				err = fs.checkCampaign(chk, i, pass, kind, rep)
			}
			t.add(fmt.Sprintf("fault/%s/%s", in.name, kind), err)
		}
	}
	return time.Since(t0), injected
}

// faultLayers replays the campaign set with spans around the golden run
// and each campaign call, then times one bit-parallel harness run of the
// long program at 64 and at 1 live lane, and its ISA-model runs.
func (fs *faultSetup) faultLayers(ctx context.Context, untraced time.Duration, chk *checker, t *tally, m metrics) error {
	tr := newTracer()
	var elapsed time.Duration
	var campaignWall time.Duration
	for i, in := range fs.ins {
		for _, kind := range campaignKinds {
			root := tr.begin("campaign")
			var err error
			tr.do("faultinject.golden", func() { _, err = faultinject.GoldenRun(ctx, fs.core, in.prog, in.w) })
			if err != nil {
				return err
			}
			var rep *faultinject.Report
			c0 := time.Now()
			tr.do("faultinject.campaign", func() { rep, err = fs.campaign(ctx, i, 0, kind) })
			campaignWall += time.Since(c0)
			tr.end(root)
			if err == nil {
				err = fs.checkCampaign(chk, i, 0, kind, rep)
			}
			t.add(fmt.Sprintf("traced fault/%s/%s", in.name, kind), err)
			if err != nil {
				return err
			}
			elapsed += rep.Elapsed
			m["faultinject.injected"] += float64(rep.Injected)
			m["faultinject.batches"] += float64(rep.Batches)
			m["bitsim.lanes_per_batch"] = float64(rep.LanesPerBatch)
		}
	}
	self := selfTimes(tr.spans)
	m["faultinject.golden_ms"] = ms(self["faultinject.golden"])
	m["faultinject.campaign_ms"] = ms(self["faultinject.campaign"])
	m["faultinject.us_per_injection"] = ms(elapsed) * 1e3 / m["faultinject.injected"]
	m["trace.coverage"] = (m["faultinject.golden_ms"] + ms(elapsed)) / ms(campaignWall)
	m["trace.overhead_frac"] = float64(campaignWall)/float64(untraced) - 1

	in := fs.ins[len(fs.ins)-1]
	for _, lanes := range []int{bitsim.Lanes, 1} {
		us, err := harnessRun(ctx, fs.core, in, lanes)
		if err != nil {
			return err
		}
		m[fmt.Sprintf("bitsim.us_per_cycle_%d", lanes)] = us
	}
	t0 := time.Now()
	for _, in := range fs.ins {
		mach := isasim.New(in.prog.Bytes, in.prog.Origin)
		if err := bench.RunISAWorkload(mach, in.w); err != nil {
			return err
		}
		if !slices.Equal(mach.Out, in.golden) {
			return fmt.Errorf("%s: ISA model is not repeatable", in.name)
		}
	}
	m["isasim.run_ms"] = ms(time.Since(t0))
	return nil
}

// harnessRun runs in's workload on every one of lanes bit-parallel lanes
// and returns the microseconds per simulated cycle. Every lane must halt
// with the golden output.
func harnessRun(ctx context.Context, c *cpu.Core, in flowInput, lanes int) (float64, error) {
	h, err := bitsim.NewHarness(c, in.prog, lanes)
	if err != nil {
		return 0, err
	}
	ws := make([]*core.Workload, lanes)
	for i := range ws {
		ws[i] = in.w
	}
	t0 := time.Now()
	if err := h.Run(ctx, ws, nil); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	for l, lr := range h.Lane {
		if lr.Status != bitsim.LaneHalted || !slices.Equal(lr.Out, in.golden) {
			return 0, fmt.Errorf("%s: lane %d of %d: %s, output %v, want %v", in.name, l, lanes, lr.Status, lr.Out, in.golden)
		}
	}
	return ms(d) * 1e3 / float64(h.Cycles()), nil
}
