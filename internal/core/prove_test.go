package core

import (
	"context"
	"errors"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/equiv"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

func TestTailorProve(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT proof gate")
	}
	p := asm.MustAssemble(simpleAdd)
	res, err := Tailor(context.Background(), p, addWorkload(), Options{Prove: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Proofs) != 1 {
		t.Fatalf("want 1 proof result, got %d", len(res.Proofs))
	}
	pr := res.Proofs[0]
	t.Logf("proofs: %d structural, %d SAT, %d assumed, %d refuted; miter: %d obligations, %d assumed claims",
		pr.Claims.ProvedStructural, pr.Claims.ProvedSAT, pr.Claims.Assumed, pr.Claims.Refuted,
		pr.Miter.Obligations, pr.Miter.AssumedClaims)
	if pr.Claims.Refuted != 0 {
		t.Errorf("%d honest claims refuted", pr.Claims.Refuted)
	}
	if !pr.Miter.Equivalent {
		t.Error("honest bespoke design not proved equivalent")
	}
	if pr.Claims.ProvedStructural+pr.Claims.ProvedSAT == 0 {
		t.Error("no claims proved at all")
	}
}

// TestTailorProveRejectsCorruption flips one recorded constant via the
// analysis hook and requires the flow to stop in the prove stage with a
// *equiv.ProofError whose stimulus demonstrably splits the designs.
func TestTailorProveRejectsCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT proof gate")
	}
	p := asm.MustAssemble(simpleAdd)

	// An honest proved run picks the victim: a structurally proved
	// combinational constant feeding surviving logic.
	res, err := Tailor(context.Background(), p, addWorkload(), Options{Prove: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := netlist.None
	n := res.BaselineCore.N
	fanoutToggled := make([]bool, len(n.Gates))
	for i := range n.Gates {
		if !res.Analysis.Toggled[i] {
			continue
		}
		for _, in := range n.Gates[i].In {
			if in != netlist.None {
				fanoutToggled[in] = true
			}
		}
	}
	for _, cr := range res.Proofs[0].Claims.Results {
		if cr.Verdict == equiv.ProvedStructural &&
			n.Gates[cr.Claim.Gate].Kind != netlist.Dff &&
			fanoutToggled[cr.Claim.Gate] {
			victim = cr.Claim.Gate
			break
		}
	}
	if victim == netlist.None {
		t.Fatal("no suitable victim claim found")
	}

	testHookAnalysis = func(union *symexec.Result) {
		union.ConstVal[victim] = logic.Not(union.ConstVal[victim])
	}
	defer func() { testHookAnalysis = nil }()

	// core.Prove reports the refutation as a verdict, not an error.
	pr, err := Prove(context.Background(), p, Options{})
	if err != nil {
		t.Fatalf("Prove returned an error for a refuted claim: %v", err)
	}
	if pr.Claims.Refuted == 0 || pr.Miter != nil {
		t.Fatalf("Prove: %d refuted, miter %v; want a refutation and no miter", pr.Claims.Refuted, pr.Miter)
	}

	_, err = Tailor(context.Background(), p, addWorkload(), Options{Prove: true})
	if err == nil {
		t.Fatal("corrupted constant passed the prove gate")
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != "prove" {
		t.Fatalf("error not from prove stage: %v", err)
	}
	var pe *equiv.ProofError
	if !errors.As(err, &pe) {
		t.Fatalf("cause is not a *equiv.ProofError: %v", err)
	}
	if pe.Gate != victim {
		t.Errorf("refuted gate %d, corrupted %d", pe.Gate, victim)
	}
	if pe.Counterexample == nil {
		t.Fatal("proof error carries no counterexample")
	}
	if pe.Divergence == nil {
		t.Fatal("counterexample was not replayed into a divergence")
	}
	t.Logf("prove gate rejected: %v", pe)
	if pe.Divergence.Base == pe.Divergence.Bespoke {
		t.Error("replayed stimulus does not split the designs")
	}
}
