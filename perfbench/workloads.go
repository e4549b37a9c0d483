package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"bespoke/internal/core"
)

// The fingerprint's pinned seeds: claims are measured on the default seed
// and re-checked on the held-out one.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// inductJob is the one Induct flow of flow-prove: mult at ladder depth 1
// is the cheapest inductive proof in the catalog.
func inductJob(ins []flowInput) (flowJob, error) {
	for _, in := range ins {
		if in.name == "mult" {
			return flowJob{in: in, mode: "induct", opts: core.Options{Induct: true, InductK: 1}}, nil
		}
	}
	return flowJob{}, fmt.Errorf("catalog has no mult")
}

func jobsFor(ins []flowInput, mode string, opts core.Options) []flowJob {
	jobs := make([]flowJob, len(ins))
	for i, in := range ins {
		jobs[i] = flowJob{in: in, mode: mode, opts: opts}
	}
	return jobs
}

func runFlowPlain(e *env) error {
	ins, err := timedSetup(e, func() ([]flowInput, error) { return prepareInputs(nil, e.seed) })
	if err != nil {
		return err
	}
	return runFlows(e, jobsFor(ins, "plain", core.Options{}), nil)
}

func runFlowProve(e *env) error {
	ins, err := timedSetup(e, func() ([]flowInput, error) { return prepareInputs(nil, e.seed) })
	if err != nil {
		return err
	}
	ij, err := inductJob(ins)
	if err != nil {
		return err
	}
	return runFlows(e, jobsFor(ins, "prove", core.Options{Prove: true}), &ij)
}

// runFlows measures cold flows one at a time: jobs in catalog order, then
// the optional Induct job, as one pass.
func runFlows(e *env, jobs []flowJob, induct *flowJob) error {
	all := jobs
	if induct != nil {
		all = append(append([]flowJob(nil), jobs...), *induct)
	}
	var lat []float64
	var cpu time.Duration
	start := time.Now()
	for pass := 0; pass == 0 || (!e.traced && time.Since(start) < e.seconds); pass++ {
		for _, j := range all {
			runtime.GC() // each flow starts from a collected heap
			d, c, err := runTailor(e.ctx, j, e.chk)
			e.t.add(j.String(), err)
			lat = append(lat, ms(d))
			cpu += c
		}
	}
	if !e.traced {
		e.m["op_gmean_ms"] = gmean(lat)
		e.m["ops_per_s"] = float64(len(lat)) / (sum(lat) / 1e3)
		e.m["cpu_ms_per_op"] = ms(cpu) / float64(len(lat))
		return nil
	}

	// The untraced pass above is the reference for the traced replay.
	untraced := lat
	flows := lat[:len(jobs)]
	e.m["flow_p50_ms"] = median(flows)
	e.m["flows_per_s"] = float64(len(flows)) / (sum(flows) / 1e3)
	if induct != nil {
		e.m["induct_s"] = lat[len(jobs)] / 1e3
	}
	tr := newTracer()
	var fc flowCounts
	for _, j := range all {
		root := tr.begin("flow")
		o, err := mirrorTailor(e.ctx, tr, j, &fc)
		tr.end(root)
		if err == nil {
			var static, seeded prints
			if static, seeded, err = o.verify(j); err == nil {
				err = e.chk.check(j.in.wseed, static, seeded)
			}
		}
		e.t.add("traced "+j.String(), err)
	}
	self, n := selfTimes(tr.spans), calls(tr.spans)
	var layers, traced time.Duration
	for name, d := range self {
		if name != "flow" && name != "prove" {
			layers += d
		}
	}
	for _, s := range tr.spans {
		if s.parent < 0 {
			traced += s.end - s.start
		}
	}
	m := e.m
	for _, name := range []string{
		"cpu.build", "cpu.clone", "symexec.analyze", "layout.place", "sta.analyze", "sim.run",
		"power.analyze", "cut.apply", "synth.optimize", "lint.flow",
		"equiv.env", "equiv.claims", "equiv.miter", "induct.spec", "induct.prove",
	} {
		m[name+"_ms"] = ms(self[name])
	}
	m["cpu.build_calls"] = float64(n["cpu.build"])
	m["layout.place_calls"] = float64(n["layout.place"])
	m["symexec.cycles"], m["symexec.paths"], m["symexec.merges"] = fc.symCycles, fc.symPaths, fc.symMerges
	m["symexec.us_per_cycle"] = ratio(m["symexec.analyze_ms"]*1e3, fc.symCycles)
	m["sim.cycles"] = fc.simCycles
	m["sim.us_per_cycle"] = ratio(m["sim.run_ms"]*1e3, fc.simCycles)
	m["cut.cut_cells"], m["synth.passes"] = fc.cutCells, fc.synthPasses
	m["equiv.sat_queries"], m["equiv.conflicts"] = fc.satQueries, fc.conflicts
	m["equiv.proved_frac"] = ratio(fc.proved, fc.claims)
	m["equiv.assumed"], m["equiv.miter_obligations"] = fc.assumed, fc.obligations
	m["induct.rounds"], m["induct.queries"], m["induct.conflicts"] = fc.rounds, fc.iQueries, fc.iConflicts
	m["induct.ms_per_round"] = ratio(m["induct.prove_ms"], fc.rounds)
	m["induct.candidates"], m["induct.dropped"], m["induct.invariants"] = fc.candidates, fc.dropped, fc.invariants
	m["trace.coverage"] = ms(layers) / sum(untraced)
	m["trace.overhead_frac"] = ms(traced)/sum(untraced) - 1
	return nil
}

func runServeMixed(e *env) error {
	type prepared struct {
		st *serveSetup
		s  *server
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	// Each set-up repetition starts a server; all but the last are closed.
	var last *server
	p, err := timedSetup(e, func() (prepared, error) {
		if last != nil {
			last.close()
		}
		st, err := prepareServe(e.seed)
		if err != nil {
			return prepared{}, err
		}
		dir, err := os.MkdirTemp(e.workdir, "serve-cache-")
		if err != nil {
			return prepared{}, err
		}
		dirs = append(dirs, dir)
		last, err = startServer(dir)
		return prepared{st, last}, err
	})
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	first, replay, stats, err := serveStream(p.s, p.st, e.seconds, e.chk, &e.t)
	if err != nil {
		return err
	}
	lat := append(append([]float64(nil), first.lat...), replay.lat...)
	perSec := float64(len(lat)) / (first.wall + replay.wall).Seconds()
	if !e.traced {
		e.m["op_gmean_ms"] = gmean(lat)
		e.m["ops_per_s"] = perSec
		e.m["cpu_ms_per_op"] = ms(cpuTime()-cpu0) / float64(len(lat))
		return nil
	}
	m := e.m
	m["req_p50_ms"] = median(lat)
	p99, ok := percentile(lat, 0.99)
	if !ok {
		return fmt.Errorf("%d requests leave fewer than %d samples beyond p99", len(lat), minTail)
	}
	m["req_p99_ms"] = p99
	m["req_per_s"] = perSec
	c := stats.Cache
	m["core.cache.hits"], m["core.cache.misses"] = float64(c.Hits), float64(c.Misses)
	m["core.cache.disk_hits"], m["core.cache.disk_writes"] = float64(c.DiskHits), float64(c.DiskWrites)
	m["core.cache.hit_frac"] = ratio(float64(c.Hits+c.DiskHits), float64(c.Hits+c.DiskHits+c.Misses))
	m["serve.coalesced"], m["serve.rejected"] = float64(stats.Coalesced), float64(stats.Rejected)
	return serveLayers(e.ctx, e.workdir, p.st, m)
}

func runFaultCampaign(e *env) error {
	fs, err := timedSetup(e, func() (*faultSetup, error) { return prepareFault(e.ctx, e.seed) })
	if err != nil {
		return err
	}
	var sets []float64
	var total, cpu time.Duration
	injected := 0
	for pass := 0; pass == 0 || (!e.traced && total < e.seconds); pass++ {
		runtime.GC()
		c0 := cpuTime()
		d, n := fs.campaignSet(e.ctx, pass, e.chk, &e.t)
		cpu += cpuTime() - c0
		sets = append(sets, ms(d))
		total += d
		injected += n
	}
	perSec := float64(injected) / total.Seconds()
	if !e.traced {
		e.m["op_gmean_ms"] = gmean(sets)
		e.m["ops_per_s"] = perSec
		e.m["cpu_ms_per_op"] = ms(cpu) / float64(injected)
		return nil
	}
	e.m["inj_per_s"] = perSec
	return fs.faultLayers(e.ctx, total, e.chk, &e.t, e.m)
}

// recordFingerprint runs every operation of every workload on the
// default and held-out seeds and writes their statistics as the new
// fingerprint.
func recordFingerprint(path string) error {
	fp := &Fingerprint{DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed, Static: map[string]string{}, Seeded: map[string]map[string]string{}}
	e := &env{ctx: context.Background(), chk: newChecker(fp, true), m: metrics{}}
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		ins, err := prepareInputs(nil, seed)
		if err != nil {
			return err
		}
		ij, err := inductJob(ins)
		if err != nil {
			return err
		}
		jobs := append(jobsFor(ins, "plain", core.Options{}), jobsFor(ins, "prove", core.Options{Prove: true})...)
		for _, j := range append(jobs, ij) {
			_, _, err := runTailor(e.ctx, j, e.chk)
			e.t.add(j.String(), err)
		}
		fs, err := prepareFault(e.ctx, seed)
		if err != nil {
			return err
		}
		for pass := 0; pass < faultPinnedPasses; pass++ {
			fs.campaignSet(e.ctx, pass, e.chk, &e.t)
		}
	}
	if e.t.failed > 0 {
		return fmt.Errorf("%d of %d operations failed; fingerprint not written", e.t.failed, e.t.attempted)
	}
	return e.chk.writeRecorded(path)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
