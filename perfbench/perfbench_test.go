package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{n: 1000, want: 990, wantOK: true}, // ranks 991..1000 lie beyond
		{n: 999, want: 990, wantOK: false}, // only 9 beyond
		{n: 1100, want: 1089, wantOK: true},
		{n: 50, want: 50, wantOK: false},
	} {
		got, ok := percentile(ramp(tc.n), 0.99)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("n=%d: p99 = %v, ok=%t; want %v, %t", tc.n, got, ok, tc.want, tc.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.99); ok {
		t.Error("p99 of no samples reported")
	}
	if got, _ := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("p50 of {3,1,2} = %v, want 2", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 || xs[0] != 5 {
		t.Errorf("median = %v (input now %v), want 3 and the input untouched", got, xs)
	}
}

func TestGmean(t *testing.T) {
	if got := gmean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("gmean(1, 100) = %v, want 10", got)
	}
	if !math.IsNaN(gmean(nil)) {
		t.Error("gmean of no samples is not NaN")
	}
}

func TestSelfTimesSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "flow", parent: -1, start: 0, end: 100 * ms},
		{name: "prove", parent: 0, start: 10 * ms, end: 60 * ms},
		{name: "equiv.claims", parent: 1, start: 20 * ms, end: 40 * ms},
		{name: "equiv.miter", parent: 1, start: 30 * ms, end: 50 * ms}, // overlaps claims
		{name: "layout.place", parent: 0, start: 70 * ms, end: 80 * ms},
		{name: "layout.place", parent: 0, start: 80 * ms, end: 90 * ms},
		{name: "flow", parent: -1, start: 200 * ms, end: 210 * ms},
		{name: "cpu.build", parent: 6, start: 205 * ms, end: 215 * ms}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"flow":         30*ms + 5*ms,  // children cover 70ms of the first and 5ms of the second
		"prove":        50*ms - 30*ms, // claims ∪ miter = [20,50)
		"equiv.claims": 20 * ms,
		"equiv.miter":  20 * ms,
		"layout.place": 20 * ms,
		"cpu.build":    10 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if n := calls(spans); n["layout.place"] != 2 || n["flow"] != 2 {
		t.Errorf("calls = %v", n)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("flow")
	tr.do("cut.apply", func() { tr.do("inner", func() {}) })
	tr.end(root)
	parents := []int{tr.spans[0].parent, tr.spans[1].parent, tr.spans[2].parent}
	if !reflect.DeepEqual(parents, []int{-1, 0, 1}) {
		t.Errorf("parents = %v, want [-1 0 1]", parents)
	}
	for _, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
}

func TestDiffPrints(t *testing.T) {
	want := prints{"plain/div/netlist": "gates=10/4", "plain/div/cycles": "120"}
	got := prints{"plain/div/netlist": "gates=10/5", "plain/div/cycles": "120", "plain/fft/netlist": "gates=10/6"}
	diff := diffPrints(want, got)
	if len(diff) != 2 ||
		!strings.Contains(diff[0], `plain/div/netlist: got "gates=10/5", want "gates=10/4"`) ||
		!strings.Contains(diff[1], "plain/fft/netlist") || !strings.Contains(diff[1], "not pinned") {
		t.Errorf("diff = %q", diff)
	}
	if d := diffPrints(want, prints{"plain/div/cycles": "120"}); len(d) != 0 {
		t.Errorf("matching subset diff = %q, want none", d)
	}
}

func TestCheckerPinsStaticAndPinnedSeedsOnly(t *testing.T) {
	fp := &Fingerprint{
		Static: map[string]string{"plain/div/netlist": "gates=10/4"},
		Seeded: map[string]map[string]string{"1": {"plain/div/cycles": "120"}},
	}
	c := newChecker(fp, false)
	static := prints{"plain/div/netlist": "gates=10/4"}
	if err := c.check(1, static, prints{"plain/div/cycles": "120"}); err != nil {
		t.Fatalf("matching run: %v", err)
	}
	if err := c.check(1, static, prints{"plain/div/cycles": "121"}); err == nil {
		t.Error("a pinned seed with other cycles passed")
	}
	// An unpinned seed is not compared with the file, but must repeat.
	if err := c.check(3, static, prints{"plain/div/cycles": "99"}); err != nil {
		t.Errorf("unpinned seed: %v", err)
	}
	if err := c.check(3, static, prints{"plain/div/cycles": "98"}); err == nil {
		t.Error("a statistic that does not repeat within the run passed")
	}
	if err := c.check(3, prints{"plain/div/netlist": "gates=10/5"}, nil); err == nil {
		t.Error("a static mismatch on an unpinned seed passed")
	}
}

func TestCheckerRecordsStaticOnceAcrossSeeds(t *testing.T) {
	c := newChecker(&Fingerprint{Static: map[string]string{}, Seeded: map[string]map[string]string{}}, true)
	if err := c.check(1, prints{"k": "a"}, prints{"s": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.check(2, prints{"k": "b"}, prints{"s": "y"}); err == nil {
		t.Error("a seed-dependent statistic was accepted as static")
	}
}

func TestTallyCountsRefusedAndErroringRequests(t *testing.T) {
	var tl tally
	tl.add("ok", nil)
	tl.add("refused", errors.New("status 429: queue full"))
	tl.add("ok", nil)
	tl.add("mismatch", errors.New("fingerprint mismatch"))
	if tl.attempted != 4 || tl.failed != 2 || tl.failFrac() != 0.5 {
		t.Errorf("tally = %d attempted, %d failed, frac %v; want 4, 2, 0.5", tl.attempted, tl.failed, tl.failFrac())
	}
	var empty tally
	if empty.failFrac() != 0 {
		t.Error("empty tally has a nonzero failure fraction")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// the metrics this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
}
