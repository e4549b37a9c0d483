package faultinject

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// TestBatchedMatchesScalarOutcomes is the backend-equality oracle: a
// mixed campaign of stuck-ats, SEUs and SETs must classify every fault
// on the bit-parallel backend exactly as the one-run-per-fault reference
// (reference_test.go) does — same outcome, same detail, same order.
func TestBatchedMatchesScalarOutcomes(t *testing.T) {
	res, prog, w := multSetup(t)
	c := cpu.Build()
	g, err := GoldenRun(context.Background(), c, prog, w)
	if err != nil {
		t.Fatal(err)
	}

	// Build a mixed fault list that crosses one batch boundary and is
	// known to contain divergent members (opposite constants, plus
	// random SEU/SET strikes inside the golden run's span).
	var faults []Fault
	for _, f := range sample(CutFaults(c.N, res, false), 30, 3) {
		faults = append(faults, f)
	}
	var dffs, sites []netlist.GateID
	for i := range c.N.Gates {
		k := c.N.Gates[i].Kind
		switch {
		case k == netlist.Dff:
			dffs = append(dffs, netlist.GateID(i))
		case !k.IsSeq() && k.NumInputs() > 0:
			sites = append(sites, netlist.GateID(i))
		}
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		faults = append(faults, Fault{
			Gate:      dffs[r.Intn(len(dffs))],
			Transient: true,
			Cycle:     uint64(r.Int63n(int64(g.Cycles))),
		})
	}
	for i := 0; i < 25; i++ {
		faults = append(faults, Fault{
			Gate:  sites[r.Intn(len(sites))],
			Pulse: true,
			Cycle: uint64(r.Int63n(int64(g.Cycles))),
		})
	}
	if len(faults) <= faultLanes {
		t.Fatalf("fault list (%d) does not cross a batch boundary", len(faults))
	}

	batched, err := Campaign(context.Background(), c, prog, w, faults, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := referenceCampaign(context.Background(), c, prog, w, g, faults, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	if batched.Injected != scalar.Injected || batched.Injected != len(faults) {
		t.Fatalf("injected %d batched vs %d scalar (want %d)", batched.Injected, scalar.Injected, len(faults))
	}
	for i := range scalar.Results {
		b, s := batched.Results[i], scalar.Results[i]
		if b.Fault != s.Fault {
			t.Fatalf("result %d: fault order diverged: %v vs %v", i, b.Fault, s.Fault)
		}
		if b.Outcome != s.Outcome {
			t.Errorf("fault %v: batched %v (%s), scalar %v (%s)",
				s.Fault, b.Outcome, b.Detail, s.Outcome, s.Detail)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	if batched.Masked != scalar.Masked || batched.Latched != scalar.Latched ||
		batched.SDCs != scalar.SDCs || batched.Hangs != scalar.Hangs {
		t.Fatalf("tallies diverged: batched %+v scalar %+v", *batched, *scalar)
	}
	// SDC and halted-run details are engine-independent and must agree
	// verbatim; Hang details come from different error paths and only the
	// classification is contractual.
	for i := range scalar.Results {
		b, s := batched.Results[i], scalar.Results[i]
		if s.Outcome == SDC || s.Outcome == Latched || s.Outcome == Masked {
			if b.Detail != s.Detail {
				t.Fatalf("fault %v: detail %q batched vs %q scalar", s.Fault, b.Detail, s.Detail)
			}
		}
	}
	if len(batched.Diverged) != len(scalar.Diverged) {
		t.Fatalf("diverged lists: %d vs %d", len(batched.Diverged), len(scalar.Diverged))
	}
	for i := range scalar.Diverged {
		if batched.Diverged[i].Fault != scalar.Diverged[i].Fault {
			t.Fatalf("diverged order: %v vs %v", batched.Diverged[i].Fault, scalar.Diverged[i].Fault)
		}
	}
	if want := (len(faults) + faultLanes - 1) / faultLanes; batched.Batches != want {
		t.Fatalf("batched built %d instances, want %d", batched.Batches, want)
	}
	if batched.LanesPerBatch != faultLanes+1 {
		t.Fatalf("lane accounting: batched %d lanes per batch, want %d", batched.LanesPerBatch, faultLanes+1)
	}
	if batched.Elapsed <= 0 || scalar.Elapsed <= 0 {
		t.Fatalf("elapsed not recorded: batched %v, scalar %v", batched.Elapsed, scalar.Elapsed)
	}
}

// TestSEUCampaignBackendEquality runs the public SEU entry point and the
// reference with the same seed: the (site, cycle) schedule and every
// outcome must be identical.
func TestSEUCampaignBackendEquality(t *testing.T) {
	_, prog, w := multSetup(t)
	n := 80
	if testing.Short() {
		n = 20
	}
	batched, err := SEUCampaign(context.Background(), cpu.Build(), prog, w, n, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := referenceSEU(context.Background(), cpu.Build(), prog, w, n, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(batched.Results) != len(scalar.Results) {
		t.Fatalf("result counts: %d vs %d", len(batched.Results), len(scalar.Results))
	}
	for i := range scalar.Results {
		b, s := batched.Results[i], scalar.Results[i]
		if b.Fault != s.Fault || b.Outcome != s.Outcome {
			t.Fatalf("injection %d: batched %v=%v, scalar %v=%v", i, b.Fault, b.Outcome, s.Fault, s.Outcome)
		}
	}
}

// TestSampleDeterministicUnderTies is the order-stability regression:
// a candidate list with many faults per gate (as SEU/SET schedules
// produce) must sample to the same schedule on every call, in the total
// fault order — the old gate-only unstable sort left tie order to the
// sort algorithm.
func TestSampleDeterministicUnderTies(t *testing.T) {
	var faults []Fault
	for gate := 0; gate < 5; gate++ {
		for cyc := 0; cyc < 40; cyc++ {
			faults = append(faults, Fault{Gate: netlist.GateID(gate), Transient: true, Cycle: uint64(cyc)})
		}
	}
	first := sample(append([]Fault(nil), faults...), 60, 17)
	for trial := 0; trial < 50; trial++ {
		got := sample(append([]Fault(nil), faults...), 60, 17)
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("trial %d: sample order changed:\n%v\nvs\n%v", trial, got, first)
		}
	}
	for i := 1; i < len(first); i++ {
		if faultLess(first[i], first[i-1]) {
			t.Fatalf("sample %d out of order: %v before %v", i, first[i-1], first[i])
		}
	}
	seen := map[Fault]bool{}
	for _, f := range first {
		if seen[f] {
			t.Fatalf("duplicate fault sampled: %v", f)
		}
		seen[f] = true
	}
}

// TestBatchedCampaignMidCancel cancels a batched campaign mid-flight:
// it must stop promptly with the campaign-abort error and report no
// partial results. Run under -race this also exercises the batch
// workers' shared-slice handoff.
func TestBatchedCampaignMidCancel(t *testing.T) {
	_, prog, w := multSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := SEUCampaign(ctx, cpu.Build(), prog, w, 1000, Options{Seed: 3, Workers: 2})
	if err == nil {
		t.Skip("campaign finished before cancellation") // tiny machine, huge CPU
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestBatchedGoldenLaneGuard corrupts the golden reference so the guard
// lane cannot match: the batched backend must refuse the whole campaign
// rather than classify faults against a wrong baseline.
func TestBatchedGoldenLaneGuard(t *testing.T) {
	_, prog, w := multSetup(t)
	c := cpu.Build()
	g, err := GoldenRun(context.Background(), c, prog, w)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Golden{Out: append([]uint16(nil), g.Out...), Cycles: g.Cycles + 1}
	var dff netlist.GateID
	for i := range c.N.Gates {
		if c.N.Gates[i].Kind == netlist.Dff {
			dff = netlist.GateID(i)
			break
		}
	}
	faults := []Fault{{Gate: dff, Transient: true, Cycle: 1}}
	outcomes, _, err := runCampaignBatched(context.Background(), c, prog, w, bad, faults, Options{})
	if err == nil {
		t.Fatalf("corrupted golden accepted; outcomes %+v", outcomes)
	}
}

// TestBatchedStuckAtXMatchesScalar: the reference's netlist rewrite maps
// a stuck-at-X request to Const0; the batched backend must do the same
// rather than reject it.
func TestBatchedStuckAtXMatchesScalar(t *testing.T) {
	res, prog, w := multSetup(t)
	c := cpu.Build()
	claimed := CutFaults(c.N, res, true)
	if len(claimed) == 0 {
		t.Skip("no cut faults")
	}
	f := claimed[0]
	f.StuckAt = logic.X
	g, err := GoldenRun(context.Background(), c, prog, w)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Campaign(context.Background(), c, prog, w, []Fault{f}, Options{})
	if err != nil {
		t.Fatalf("batched: %v", err)
	}
	scalar, err := referenceCampaign(context.Background(), c, prog, w, g, []Fault{f}, Options{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, rep := range []*Report{batched, scalar} {
		if rep.Injected != 1 {
			t.Fatalf("injected %d", rep.Injected)
		}
	}
	if b, s := batched.Results[0], scalar.Results[0]; b.Outcome != s.Outcome || b.Detail != s.Detail {
		t.Fatalf("stuck-at-X: batched %v (%s), reference %v (%s)", b.Outcome, b.Detail, s.Outcome, s.Detail)
	}
}
