// Command perfbench is the repository's benchmark: one workload per run,
// every end-to-end metric printed by name with its unit, every output
// checked. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	flow-plain      cold core.Tailor, default options, over the catalog
//	flow-prove      cold core.Tailor with Prove over the catalog, plus one
//	                Induct (K=1) flow on mult
//	serve-mixed     an in-process bespoke-serve over HTTP with a memory and
//	                disk cache, two closed-loop clients, a skewed key
//	                stream, then a restart that replays it from disk
//	fault-campaign  seeded SEU and SET campaigns on mult and tea8
//
// The seed drives every input: the catalog workloads (Benchmark.Workload),
// the serving key set and request stream, and the campaign sampling
// seeds. The program under test only receives the generated inputs.
//
// With --trace 0 the run measures for --seconds (whole passes, at least
// one) with nothing traced and reports the end-to-end metrics. The unit
// of work ("op") is a cold flow on the flow workloads, a request on
// serve-mixed, and one fault injection on fault-campaign. The end-to-end
// metrics are costs in process CPU time (set-up, and per op), which on a
// shared machine move far less with the neighbours' load than wall time
// does, and peak memory. The wall-clock figures of the same run, the
// geometric mean time per op (per set of all campaigns on
// fault-campaign) and ops per second, are printed on a line of their own
// before the result; the traced run reports the median and tail
// latencies and throughputs by workload (flow_p50_ms, req_p99_ms, ...).
//
// With --trace 1 the run makes one untraced pass and then replays it with
// a span around every call into a layer's public API (core.Tailor is
// replayed stage by stage), and reports the per-layer metrics. Flow and
// campaign layer times are totals over the pass; serving layer times are
// means per call. A layer the workload does not exercise reports 0.
//
// Every flow's bespoke output must equal the ISA model's, proofs must
// show no refuted claim and an equivalent miter, and every statistic must
// match the committed fingerprint.json (seed-dependent ones only on its
// pinned seeds) and repeat within the run; the traced replay must
// reproduce core.Tailor's fingerprint. Any failure is counted, and the
// command then exits 1 after printing its result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
)

// setupReps is how many times set-up is repeated for its median.
const setupReps = 5

func main() {
	workload := flag.String("workload", "", "workload: flow-plain, flow-prove, serve-mixed or fault-campaign")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured time per run, in whole passes")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch cache directories")
	record := flag.String("write-fingerprint", "", "run the default and held-out seeds of every workload and write the fingerprint to this file")
	flag.Parse()

	var err error
	var out *result
	switch {
	case *record != "":
		err = recordFingerprint(*record)
	case flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1):
		flag.Usage()
		os.Exit(2)
	default:
		out, err = run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out == nil {
		return
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics holds values by name; units come from the definitions.
type metrics map[string]float64

type def struct{ name, unit string }

// endToEnd are the metrics a trace-0 run reports on every workload.
var endToEnd = []def{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer are the metrics a trace-1 run reports on every workload.
var perLayer = []def{
	{"flow_p50_ms", "ms"}, {"flows_per_s", "1/s"}, {"induct_s", "s"},
	{"req_p50_ms", "ms"}, {"req_p99_ms", "ms"}, {"req_per_s", "1/s"},
	{"inj_per_s", "1/s"}, {"fail_frac", "fraction"},
	{"cpu.build_ms", "ms"}, {"cpu.build_calls", "count"}, {"cpu.clone_ms", "ms"},
	{"symexec.analyze_ms", "ms"}, {"symexec.cycles", "count"}, {"symexec.paths", "count"},
	{"symexec.merges", "count"}, {"symexec.us_per_cycle", "us"},
	{"layout.place_ms", "ms"}, {"layout.place_calls", "count"}, {"sta.analyze_ms", "ms"},
	{"sim.run_ms", "ms"}, {"sim.cycles", "count"}, {"sim.us_per_cycle", "us"},
	{"power.analyze_ms", "ms"}, {"cut.apply_ms", "ms"}, {"cut.cut_cells", "count"},
	{"synth.optimize_ms", "ms"}, {"synth.passes", "count"},
	{"lint.flow_ms", "ms"}, {"lint.rehydrate_ms", "ms"},
	{"equiv.env_ms", "ms"}, {"equiv.claims_ms", "ms"}, {"equiv.miter_ms", "ms"},
	{"equiv.sat_queries", "count"}, {"equiv.conflicts", "count"}, {"equiv.proved_frac", "fraction"},
	{"equiv.assumed", "count"}, {"equiv.miter_obligations", "count"},
	{"induct.spec_ms", "ms"}, {"induct.prove_ms", "ms"}, {"induct.rounds", "count"},
	{"induct.queries", "count"}, {"induct.conflicts", "count"}, {"induct.ms_per_round", "ms"},
	{"induct.candidates", "count"}, {"induct.dropped", "count"}, {"induct.invariants", "count"},
	{"core.key_ms", "ms"}, {"core.rehydrate_ms", "ms"}, {"core.cold_ms", "ms"},
	{"core.cache.hits", "count"}, {"core.cache.misses", "count"}, {"core.cache.disk_hits", "count"},
	{"core.cache.disk_writes", "count"}, {"core.cache.hit_frac", "fraction"},
	{"netlist.decode_ms", "ms"}, {"netlist.encode_ms", "ms"},
	{"serve.tailor_ms", "ms"}, {"serve.http_ms", "ms"}, {"serve.coalesced", "count"}, {"serve.rejected", "count"},
	{"faultinject.golden_ms", "ms"}, {"faultinject.campaign_ms", "ms"}, {"faultinject.injected", "count"},
	{"faultinject.batches", "count"}, {"faultinject.us_per_injection", "us"},
	{"bitsim.lanes_per_batch", "count"}, {"bitsim.us_per_cycle_64", "us"}, {"bitsim.us_per_cycle_1", "us"},
	{"isasim.run_ms", "ms"},
	{"go.alloc_mb", "MB"}, {"go.gc_count", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.coverage", "fraction"}, {"trace.overhead_frac", "fraction"},
	{"calib.sim_tea8_ms", "ms"},
}

// workloads maps each workload name to its runner. A runner records its
// set-up times and the metrics of the requested kind in the env; run adds
// the process-wide ones.
var workloads = map[string]func(w *env) error{
	"flow-plain":     runFlowPlain,
	"flow-prove":     runFlowProve,
	"serve-mixed":    runServeMixed,
	"fault-campaign": runFaultCampaign,
}

// env is one run's configuration and accumulators.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	traced  bool
	workdir string
	chk     *checker
	t       tally
	m       metrics
	setup   []float64 // CPU seconds per set-up repetition
}

func run(name string, seed uint64, seconds time.Duration, traced bool, workdir string) (*result, error) {
	runner, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	fp, err := loadFingerprint()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	e := &env{
		ctx: context.Background(), seed: seed, seconds: seconds, traced: traced, workdir: workdir,
		chk: newChecker(fp, false), m: metrics{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runner(e); err != nil {
		e.t.add(name, err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	calib, err := calibrate(e.ctx)
	if err != nil {
		e.t.add("calibration", err)
	}
	machineRecord(calib)
	if !traced {
		line, _ := json.Marshal(map[string]float64{"op_gmean_ms": e.m["op_gmean_ms"], "ops_per_s": e.m["ops_per_s"]})
		fmt.Printf("wall %s\n", line)
	}

	e.m["setup_s"] = median(e.setup)
	e.m["peak_rss_mb"] = peakRSSMB()
	e.m["fail_frac"] = e.t.failFrac()
	e.m["calib.sim_tea8_ms"] = calib
	e.m["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	e.m["go.gc_count"] = float64(after.NumGC - before.NumGC)
	e.m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	out := &result{Correct: e.t.failed == 0, Attempted: e.t.attempted, Failed: e.t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := e.m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only after a failure, which the result already reports
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// timedSetup runs prepare setupReps times, recording the CPU time of
// each, and returns the last result.
func timedSetup[T any](e *env, prepare func() (T, error)) (T, error) {
	var v T
	var err error
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		c0 := cpuTime()
		v, err = prepare()
		e.setup = append(e.setup, (cpuTime() - c0).Seconds())
		if err != nil {
			return v, err
		}
	}
	return v, nil
}

// calibrate times the scalar gate-level run of tea8 on its fixed seed-1
// workload (the BenchmarkGateSimulation kernel) and returns the median of
// three runs in ms, so per-layer numbers can be compared across machines
// as ratios.
func calibrate(ctx context.Context) (float64, error) {
	b := bench.ByName("tea8")
	p, err := b.Prog()
	if err != nil {
		return 0, err
	}
	c := cpu.Build()
	var samples []float64
	for i := 0; i < 3; i++ {
		w := b.Workload(1)
		t0 := time.Now()
		if _, err := core.RunWorkload(ctx, c, p, w); err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples), nil
}

// machineRecord prints the machine a run was measured on.
func machineRecord(calib float64) {
	rec := map[string]any{
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"cpu":               cpuModel(),
		"calib.sim_tea8_ms": calib,
	}
	line, _ := json.Marshal(rec)
	fmt.Printf("machine %s\n", line)
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the CPU time the process has used so far, user and system,
// on every thread.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rng is a splitmix64 generator: every random draw of the benchmark
// derives from the seed argument through one of these.
type rng uint64

func newRNG(seed uint64) *rng { r := rng(seed); return &r }

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle is a Fisher-Yates shuffle of n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(r.next()%uint64(i+1)))
	}
}
