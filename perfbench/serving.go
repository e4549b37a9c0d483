package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/lint"
	"bespoke/internal/netlist"
	"bespoke/internal/serve"
)

// Serving workload shape. Every catalog program with one workload seed
// gives a key set small enough that nearly every request is a cache hit
// once each key's first (cold) request has run, and the same cold-flow
// work on every seed; the Zipf-like skew makes the hot keys dominate as
// in a real request mix.
const (
	serveClients    = 2
	serveZipfS      = 1.2
	serveMinSamples = 100 * minTail // p99 needs minTail samples beyond it
	serveTraceReqs  = 300
)

// serveKey is one distinct request: a program with one workload seed.
type serveKey struct {
	in   flowInput
	body []byte
}

// serveSetup is everything the serving workload builds before it sends
// its first request.
type serveSetup struct {
	keys []serveKey
	cdf  []float64 // cumulative request probability over keys
	seed uint64
}

// prepareServe builds one key per catalog program, ranks the keys for the
// skew in a seeded order and encodes the request bodies.
func prepareServe(seed uint64) (*serveSetup, error) {
	ins, err := prepareInputs(nil, seed)
	if err != nil {
		return nil, err
	}
	st := &serveSetup{seed: seed}
	for _, in := range ins {
		body, err := json.Marshal(&serve.Request{Source: bench.ByName(in.name).Source, Workload: serve.WireWorkload(in.w)})
		if err != nil {
			return nil, err
		}
		st.keys = append(st.keys, serveKey{in: in, body: body})
	}
	newRNG(seed^0x5e7e).shuffle(len(st.keys), func(i, j int) { st.keys[i], st.keys[j] = st.keys[j], st.keys[i] })
	total := 0.0
	for i := range st.keys {
		total += 1 / math.Pow(float64(i+1), serveZipfS)
		st.cdf = append(st.cdf, total)
	}
	for i := range st.cdf {
		st.cdf[i] /= total
	}
	return st, nil
}

// pick returns the key of the i-th request of the stream. The stream is a
// pure function of the seed and i, so both clients and the replay after
// the restart see the same sequence however requests interleave.
func (st *serveSetup) pick(i int) int {
	r := newRNG(st.seed ^ uint64(i)*0x9E3779B97F4A7C15)
	u := r.float()
	for k, c := range st.cdf {
		if u < c {
			return k
		}
	}
	return len(st.cdf) - 1
}

// server is one serve.Server over an on-disk cache directory, reachable
// over HTTP on a loopback httptest listener.
type server struct {
	dir   string
	cache *core.TailorCache
	srv   *serve.Server
	http  *httptest.Server
}

func startServer(dir string) (*server, error) {
	dc, err := core.NewDiskTailorCache(dir)
	if err != nil {
		return nil, err
	}
	tc := core.NewTailorCacheWith(core.CacheConfig{Disk: dc})
	srv := serve.New(serve.Config{Cache: tc})
	return &server{dir: dir, cache: tc, srv: srv, http: httptest.NewServer(srv)}, nil
}

func (s *server) close() { s.http.Close() }

// serveRun is the outcome of sending a request stream to one server.
type serveRun struct {
	lat  []float64 // per-request client-side latency, ms
	wall time.Duration
}

// drive sends requests i = 0, 1, ... of the stream from serveClients
// closed-loop clients (each waits for its reply before sending again)
// until more(i) is false for the next index, checking every reply.
func (st *serveSetup) drive(s *server, more func(i int, elapsed time.Duration) bool, restarted bool, chk *checker, t *tally) serveRun {
	client := &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients},
	}
	defer client.CloseIdleConnections()
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		run  serveRun
	)
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if !more(i, time.Since(t0)) {
					return
				}
				k := &st.keys[st.pick(i)]
				r0 := time.Now()
				resp, err := post(client, s.http.URL, k.body)
				d := time.Since(r0)
				mu.Lock()
				if err == nil && restarted && (resp.Source == "cold" || resp.Source == "coalesced") {
					err = fmt.Errorf("served %s after the restart; the disk cache should have it", resp.Source)
				}
				if err == nil {
					static, seeded := responsePrints(k.in.name, resp)
					err = chk.check(k.in.wseed, static, seeded)
				}
				t.add("serve/"+k.in.name, err)
				run.lat = append(run.lat, ms(d))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(t0)
	return run
}

// post sends one tailoring request. A non-200 reply (a 429 included) is
// an error.
func post(client *http.Client, url string, body []byte) (*serve.Response, error) {
	resp, err := client.Post(url+"/v1/tailor", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out serve.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// responsePrints restates a response in the fingerprint's plain-flow
// statistics.
func responsePrints(name string, r *serve.Response) (static, seeded prints) {
	pre := "plain/" + name + "/"
	static = flowStats{
		baseGates: r.Baseline.Gates, gates: r.Bespoke.Gates, baseDffs: r.Baseline.Dffs, dffs: r.Bespoke.Dffs,
		symCycles: r.Analysis.Cycles, paths: r.Analysis.Paths, merges: r.Analysis.Merges,
		cut: r.Cut.Cut, kept: r.Cut.Kept,
		folded: r.Synth.Folded, collapsed: r.Synth.Collapsed, dead: r.Synth.Dead, passes: r.Synth.Passes,
		baseCriticalPs: r.Baseline.CriticalPs, criticalPs: r.Bespoke.CriticalPs,
		baseAreaUm2: r.Baseline.AreaUm2, areaUm2: r.Bespoke.AreaUm2,
	}.prints(pre)
	seeded = prints{pre + "power": powerPrint(r.Baseline.PowerUW, r.Bespoke.PowerUW, r.PowerAtVminUW)}
	return static, seeded
}

// serveStream runs the measured request stream: s1, a server over an
// empty cache directory, until the time budget is spent (and enough
// requests have completed for a p99), then a second server restarted on
// the same directory replaying the same requests. It returns both runs.
func serveStream(s1 *server, st *serveSetup, seconds time.Duration, chk *checker, t *tally) (first, replay serveRun, stats serve.Stats, err error) {
	half := seconds / 2
	first = st.drive(s1, func(i int, elapsed time.Duration) bool {
		return elapsed < half || i < serveMinSamples/2
	}, false, chk, t)
	s1.close()
	n := len(first.lat)

	s2, err := startServer(s1.dir)
	if err != nil {
		return first, replay, stats, err
	}
	defer s2.close()
	replay = st.drive(s2, func(i int, _ time.Duration) bool { return i < n }, true, chk, t)
	stats = addStats(s1.srv.Stats(), s2.srv.Stats())
	return first, replay, stats, nil
}

func addStats(a, b serve.Stats) serve.Stats {
	a.Requests += b.Requests
	a.Coalesced += b.Coalesced
	a.Rejected += b.Rejected
	a.Cache.Hits += b.Cache.Hits
	a.Cache.Misses += b.Cache.Misses
	a.Cache.DiskHits += b.Cache.DiskHits
	a.Cache.DiskWrites += b.Cache.DiskWrites
	return a
}

// serveLayers times the serving path's layers in process on a fresh
// cache: the content-address key, each key's cold flow, then for a
// stretch of the stream (all memory hits) the cache probe that rehydrates
// a hit, the lint, encode and decode it is built from, Server.Tailor and
// one HTTP round trip. Each metric is a mean per call.
func serveLayers(ctx context.Context, workdir string, st *serveSetup, m metrics) error {
	dir, err := os.MkdirTemp(workdir, "serve-trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(dir)
	if err != nil {
		return err
	}
	defer s.close()
	client := &http.Client{Timeout: 5 * time.Minute}
	defer client.CloseIdleConnections()

	var keyT, coldT, probeT, lintT, encT, decT, tailorT, httpT, untracedT time.Duration
	progsOf := func(k *serveKey) ([]*asm.Program, []*core.Workload) {
		return []*asm.Program{k.in.prog}, []*core.Workload{k.in.w}
	}
	for i := range st.keys {
		progs, ws := progsOf(&st.keys[i])
		t0 := time.Now()
		if _, err := s.cache.Key(progs, ws, core.Options{}); err != nil {
			return err
		}
		keyT += time.Since(t0)
		t0 = time.Now()
		if _, _, err := s.srv.Tailor(ctx, progs, ws, core.Options{}); err != nil {
			return err
		}
		coldT += time.Since(t0)
	}
	// The same hits untimed per call, for the tracing overhead.
	t0 := time.Now()
	for i := 0; i < serveTraceReqs; i++ {
		progs, ws := progsOf(&st.keys[st.pick(i)])
		if _, _, err := s.srv.Tailor(ctx, progs, ws, core.Options{}); err != nil {
			return err
		}
	}
	untracedT = time.Since(t0)
	for i := 0; i < serveTraceReqs; i++ {
		k := &st.keys[st.pick(i)]
		progs, ws := progsOf(k)
		t0 := time.Now()
		res, _, ok, err := s.cache.Probe(ctx, progs, ws, core.Options{})
		probeT += time.Since(t0)
		if err != nil || !ok {
			return fmt.Errorf("probe of a cached key: hit=%t err=%v", ok, err)
		}
		t0 = time.Now()
		rep, err := core.LintCore(ctx, res.BespokeCore, lint.Config{})
		lintT += time.Since(t0)
		if err != nil {
			return err
		}
		if bad := rep.AtLeast(lint.Error); len(bad) > 0 {
			return &core.LintError{Findings: bad}
		}
		t0 = time.Now()
		bin := netlist.Encode(res.BespokeCore.N)
		encT += time.Since(t0)
		t0 = time.Now()
		if _, err := netlist.Decode(bin); err != nil {
			return err
		}
		decT += time.Since(t0)
		t0 = time.Now()
		if _, _, err := s.srv.Tailor(ctx, progs, ws, core.Options{}); err != nil {
			return err
		}
		tailorT += time.Since(t0)
		t0 = time.Now()
		if _, err := post(client, s.http.URL, k.body); err != nil {
			return err
		}
		httpT += time.Since(t0)
	}
	perKey := func(d time.Duration) float64 { return ms(d) / float64(len(st.keys)) }
	perReq := func(d time.Duration) float64 { return ms(d) / serveTraceReqs }
	m["core.key_ms"] = perKey(keyT)
	m["core.cold_ms"] = perKey(coldT)
	m["core.rehydrate_ms"] = perReq(probeT)
	m["lint.rehydrate_ms"] = perReq(lintT)
	m["netlist.encode_ms"] = perReq(encT)
	m["netlist.decode_ms"] = perReq(decT)
	m["serve.tailor_ms"] = perReq(tailorT)
	m["serve.http_ms"] = perReq(httpT)
	m["trace.coverage"] = (m["core.key_ms"] + m["netlist.decode_ms"] + m["lint.rehydrate_ms"]) / m["core.rehydrate_ms"]
	m["trace.overhead_frac"] = float64(tailorT)/float64(untracedT) - 1
	return nil
}
