package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bespoke/internal/core"
	"bespoke/internal/netlist"
)

// addSrc is the fast test kernel (sums eight RAM words): a full flow is
// ~50ms, so tests that need many cold runs stay cheap.
const addSrc = `
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
        mov #0x900, r4
        clr r5
        mov #8, r6
loop:   add @r4+, r5
        dec r6
        jne loop
        mov r5, &OUTPORT
halt:   dint
        jmp $
        .org 0xFFFE
        .word start
`

// slowSrc counts to 3000: its flow runs on the order of a second, long
// enough to observe coalescing and cancellation mid-flight.
const slowSrc = `
        .org 0xF000
start:  mov #0x5A80, &WDTCTL
        mov #STACKTOP, sp
        mov #3000, r6
        clr r5
loop:   add #1, r5
        dec r6
        jne loop
        mov r5, &OUTPORT
halt:   dint
        jmp $
        .org 0xFFFE
        .word start
`

func addRequest(first uint16) *Request {
	ram := map[string]uint16{"2304": first}
	for i := 1; i < 8; i++ {
		ram[fmt.Sprint(2304+2*i)] = uint16(i + 1)
	}
	return &Request{Source: addSrc, Workload: &Workload{RAM: ram}}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = core.NewTailorCache()
	}
	return New(cfg)
}

// post sends one request body through the handler without a socket and
// returns the recorder.
func post(t *testing.T, s *Server, ctx context.Context, body any) *httptest.ResponseRecorder {
	t.Helper()
	var payload []byte
	switch b := body.(type) {
	case string:
		payload = []byte(b)
	default:
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/tailor", strings.NewReader(string(payload)))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeResponse(t *testing.T, rec *httptest.ResponseRecorder) *Response {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder, wantStatus int, wantKind string) ErrorDetail {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", rec.Code, wantStatus, rec.Body.String())
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, rec.Body.String())
	}
	if body.Error.Kind != wantKind {
		t.Fatalf("kind %q, want %q (message %q)", body.Error.Kind, wantKind, body.Error.Message)
	}
	if body.Error.Status != wantStatus {
		t.Fatalf("body status %d, want %d", body.Error.Status, wantStatus)
	}
	return body.Error
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"malformed-json", `{"source": "...`},
		{"unknown-field", `{"sauce": "typo"}`},
		{"no-program", &Request{}},
		{"source-and-image", &Request{Source: addSrc, Image: &Image{Origin: 0xF000, Data: "AA=="}}},
		{"bad-assembly", &Request{Source: "not msp430 at all"}},
		{"bad-image-base64", &Request{Image: &Image{Origin: 0xF000, Data: "@@@"}}},
		{"empty-image", &Request{Image: &Image{Origin: 0xF000, Data: ""}}},
		{"bad-ram-key", &Request{Source: addSrc, Workload: &Workload{RAM: map[string]uint16{"xyz": 1}}}},
		{"ram-outside-data-ram", &Request{Source: addSrc, Workload: &Workload{RAM: map[string]uint16{"0x0010": 1}}}},
		{"ram-odd-address", &Request{Source: addSrc, Workload: &Workload{RAM: map[string]uint16{"2305": 1}}}},
		{"programs-and-source", &Request{Source: addSrc, Programs: []ProgramSpec{{Source: addSrc}}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			rec := post(t, s, nil, tt.body)
			decodeError(t, rec, http.StatusBadRequest, "bad-request")
		})
	}
	if st := s.Stats(); st.BadRequests != int64(len(cases)) {
		t.Fatalf("bad request count = %d, want %d", st.BadRequests, len(cases))
	}
}

func TestTailorColdThenMemoryHit(t *testing.T) {
	s := newTestServer(t, Config{})
	req := addRequest(1)
	req.IncludeNetlist = true

	cold := decodeResponse(t, post(t, s, nil, req))
	if cold.Source != "cold" {
		t.Fatalf("first response source %q, want cold", cold.Source)
	}
	if cold.Savings.Gates <= 0 || cold.Bespoke.Gates <= 0 || cold.Bespoke.Gates >= cold.Baseline.Gates {
		t.Fatalf("implausible metrics: %+v", cold)
	}
	hit := decodeResponse(t, post(t, s, nil, req))
	if hit.Source != "memory" {
		t.Fatalf("second response source %q, want memory", hit.Source)
	}
	if hit.Key != cold.Key || hit.Bespoke != cold.Bespoke {
		t.Fatalf("hit drifted from cold: %+v vs %+v", hit, cold)
	}
	// The returned netlists are byte-identical and decodable.
	b1, err := base64.StdEncoding.DecodeString(cold.NetlistB64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netlist.Decode(b1); err != nil {
		t.Fatalf("returned netlist does not decode: %v", err)
	}
	if hit.NetlistB64 != cold.NetlistB64 {
		t.Fatal("hit returned a different netlist encoding")
	}
	st := s.Stats()
	if st.Cold != 1 || st.Memory != 1 || st.Requests != 2 {
		t.Fatalf("stats = %+v; want 1 cold + 1 memory", st)
	}
}

func TestSingleflightOneColdTailor(t *testing.T) {
	const n = 8
	s := newTestServer(t, Config{Workers: 2})
	req := &Request{Source: slowSrc}

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(t, s, nil, req)
		}(i)
	}
	wg.Wait()

	keys := map[string]bool{}
	for i, rec := range recs {
		resp := decodeResponse(t, rec)
		keys[resp.Key] = true
		if resp.Source != "cold" && resp.Source != "coalesced" && resp.Source != "memory" {
			t.Fatalf("request %d: source %q", i, resp.Source)
		}
	}
	if len(keys) != 1 {
		t.Fatalf("identical requests produced %d distinct keys", len(keys))
	}
	st := s.Stats()
	// The load-bearing assertion: the flow ran exactly once.
	if st.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 cold flow for %d identical requests", st.Cache.Misses, n)
	}
	if st.Cold != 1 {
		t.Fatalf("cold responses = %d, want 1", st.Cold)
	}
	if st.Cold+st.Coalesced+st.Memory != n {
		t.Fatalf("stats = %+v; responses don't add up to %d", st, n)
	}
	if st.Coalesced == 0 {
		t.Fatalf("stats = %+v; expected at least one coalesced request", st)
	}
}

func TestCancelledRequestClientGoneNoLeakedWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, s, ctx, &Request{Source: slowSrc}) }()

	// Let the flow actually start, then walk away like a closed client.
	waitFor(t, func() bool { return s.Stats().ActiveCold == 1 })
	cancel()

	rec := <-done
	decodeError(t, rec, StatusClientClosedRequest, "client-gone")

	// The abandoned flight notices at its next context check and frees
	// its worker: no gauge may stay up.
	waitFor(t, func() bool {
		st := s.Stats()
		return st.ActiveCold == 0 && st.QueuedCold == 0
	})
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats = %+v; want 1 cancelled", st)
	}
	// And the pool still serves: a fresh request on the single worker
	// succeeds rather than deadlocking behind a leaked slot.
	resp := decodeResponse(t, post(t, s, nil, addRequest(7)))
	if resp.Source != "cold" {
		t.Fatalf("follow-up source %q, want cold", resp.Source)
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, s, nil, &Request{Source: slowSrc}) }()
	waitFor(t, func() bool { return s.Stats().ActiveCold == 1 })

	rec := post(t, s, nil, addRequest(3))
	detail := decodeError(t, rec, http.StatusTooManyRequests, "queue-full")
	if detail.RetryAfterMs <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", detail.RetryAfterMs)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 response has no Retry-After header")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v; want 1 rejected", st)
	}
	decodeResponse(t, <-done) // the occupying request still completes
}

func TestDeadlineExceeded504(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s, nil, &Request{Source: slowSrc, TimeoutMs: 120})
	// No stage assertion: the waiter returns the moment its own context
	// deadline fires, which can beat the flow's next context check — the
	// error then has no flow stage attached. Kind and status are stable.
	decodeError(t, rec, http.StatusGatewayTimeout, "deadline")
	if st := s.Stats(); st.Deadline != 1 {
		t.Fatalf("stats = %+v; want 1 deadline", st)
	}
}

func TestAnalysisBudgetLimit422(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s, nil, &Request{Source: slowSrc, Options: &FlowOptions{MaxCycles: 2000}})
	detail := decodeError(t, rec, http.StatusUnprocessableEntity, "limit")
	if detail.Limit == nil || detail.Limit.Cycles == 0 || detail.Limit.Reason == "" {
		t.Fatalf("limit error carries no watchdog progress: %+v", detail)
	}
	if detail.Stage != "analysis" {
		t.Fatalf("stage %q, want analysis", detail.Stage)
	}
}

func TestDiskHitAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	req := addRequest(5)

	disk1, err := core.NewDiskTailorCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newTestServer(t, Config{Cache: core.NewTailorCacheWith(core.CacheConfig{Disk: disk1})})
	cold := decodeResponse(t, post(t, s1, nil, req))
	if cold.Source != "cold" {
		t.Fatalf("source %q, want cold", cold.Source)
	}

	// A second server process on the same directory: first request must
	// be served from disk, without a flow run.
	disk2, err := core.NewDiskTailorCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{Cache: core.NewTailorCacheWith(core.CacheConfig{Disk: disk2})})
	warm := decodeResponse(t, post(t, s2, nil, req))
	if warm.Source != "disk" {
		t.Fatalf("restarted server served from %q, want disk", warm.Source)
	}
	if warm.Key != cold.Key || warm.Bespoke != cold.Bespoke {
		t.Fatalf("disk hit drifted: %+v vs %+v", warm, cold)
	}
	st := s2.Stats()
	if st.Cache.DiskHits != 1 || st.Cold != 0 {
		t.Fatalf("restart stats = %+v; want a pure disk hit", st)
	}
}

func TestMultiProgramRequest(t *testing.T) {
	s := newTestServer(t, Config{})
	req := &Request{Programs: []ProgramSpec{
		{Source: addSrc, Workload: addRequest(1).Workload},
		{Source: slowSrc},
	}}
	resp := decodeResponse(t, post(t, s, nil, req))
	if resp.Source != "cold" || resp.Bespoke.Gates <= 0 {
		t.Fatalf("multi-program response: %+v", resp)
	}
	// The union design must keep at least as many gates as either alone.
	solo := decodeResponse(t, post(t, s, nil, addRequest(1)))
	if resp.Bespoke.Gates < solo.Bespoke.Gates {
		t.Fatalf("union design smaller than single-program design: %d < %d",
			resp.Bespoke.Gates, solo.Bespoke.Gates)
	}
}

// TestResilienceOverHTTP drives the resilience signoff through the
// wire: a report-only request carries the vulnerability maps in the
// response, and a zero-tolerance request with visible strikes is a 422
// with kind "resilience" and the structured violation attached.
func TestResilienceOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{})

	req := addRequest(7)
	req.Options = &FlowOptions{Resilience: true, ResilienceFaults: 8, ResilienceSeed: 11}
	resp := decodeResponse(t, post(t, s, nil, req))
	if resp.Resilience == nil {
		t.Fatal("response carries no resilience section")
	}
	r := resp.Resilience
	if r.Bespoke.Injected != 8 || r.Baseline.Injected != 8 {
		t.Fatalf("campaign sizes wrong: %+v", r)
	}
	if r.Bespoke.Sites >= r.Baseline.Sites {
		t.Fatalf("bespoke SET sites %d not below baseline %d", r.Bespoke.Sites, r.Baseline.Sites)
	}
	if len(r.Bespoke.Modules) == 0 {
		t.Fatal("bespoke vulnerability map has no modules")
	}
	if r.Bespoke.Masked+r.Bespoke.Latched+r.Bespoke.Visible != r.Bespoke.Injected {
		t.Fatalf("outcomes do not partition injections: %+v", r.Bespoke)
	}

	// Zero tolerance: sweep seeds until a visible strike rejects the
	// request with the typed wire error.
	for seed := uint64(1); ; seed++ {
		if seed > 32 {
			t.Fatal("no seed in 1..32 produced a visible SET; cannot exercise the 422 path")
		}
		req := addRequest(7)
		req.Options = &FlowOptions{
			Resilience: true, ResilienceFaults: 8,
			ResilienceSeed: seed, ResilienceMaxVisible: -1,
		}
		rec := post(t, s, nil, req)
		if rec.Code == http.StatusOK {
			continue // every strike masked or latched at this seed
		}
		detail := decodeError(t, rec, http.StatusUnprocessableEntity, "resilience")
		if detail.Stage != "resilience" {
			t.Fatalf("stage %q, want resilience", detail.Stage)
		}
		rd := detail.Resilience
		if rd == nil || rd.Report == nil {
			t.Fatalf("resilience error carries no structured detail: %+v", detail)
		}
		if rd.VisibleFrac <= 0 || rd.WorstModule == "" || rd.Report.Bespoke.Visible == 0 {
			t.Fatalf("violation detail incomplete: %+v", rd)
		}
		break
	}
}

// TestHealthzDegradedAtCapacity: while the cold-flow queue is at the
// admission-control cap, /healthz flips to 503 {"status":"degraded"}
// so load balancers shed traffic before clients see 429s; it recovers
// to 200 once the queue drains.
func TestHealthzDegradedAtCapacity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	getHealth := func() (int, string) {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	if code, body := getHealth(); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("idle healthz: %d %q", code, body)
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, s, nil, &Request{Source: slowSrc}) }()
	waitFor(t, func() bool { return s.Stats().QueuedCold == 1 })

	code, body := getHealth()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz at capacity: %d %q, want 503", code, body)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil || h.Status != "degraded" {
		t.Fatalf("degraded body = %q (err %v), want status degraded", body, err)
	}

	decodeResponse(t, <-done)
	waitFor(t, func() bool { return s.Stats().QueuedCold == 0 })
	if code, body := getHealth(); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz after drain: %d %q", code, body)
	}
}

func TestStatsAndHealthEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	decodeResponse(t, post(t, s, nil, addRequest(9)))

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Cold != 1 || st.Cache.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}

	// Wrong method on the tailor endpoint is a routing-level error.
	req = httptest.NewRequest(http.MethodGet, "/v1/tailor", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tailor status %d, want 405", rec.Code)
	}
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}
