package core_test

import (
	"context"
	"reflect"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/equiv"
)

// TestProveMatchesTailor: core.Prove runs the same per-program proof as
// Tailor's prove stage, so the tallies, query counts and miter agree,
// with and without inductive strengthening.
func TestProveMatchesTailor(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT proof gate")
	}
	b := bench.ByName("mult")
	for _, opts := range []core.Options{{Prove: true}, {Induct: true, InductK: 1}} {
		res, err := core.Tailor(context.Background(), b.MustProg(), b.Workload(1), opts)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.Prove(context.Background(), b.MustProg(), opts)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Proofs[0]
		tally := func(r *equiv.Report) [6]int64 {
			return [6]int64{int64(r.ProvedStructural), int64(r.ProvedSAT), int64(r.ProvedInduct),
				int64(r.Assumed), int64(r.Refuted), r.SATQueries}
		}
		if got, w := tally(pr.Claims), tally(want.Claims); got != w {
			t.Errorf("induct=%t: Prove claims %v, Tailor %v", opts.Induct, got, w)
		}
		if *pr.Miter != *want.Miter {
			t.Errorf("induct=%t: Prove miter %+v, Tailor %+v", opts.Induct, *pr.Miter, *want.Miter)
		}
		if (pr.Induct != nil) != opts.Induct || !reflect.DeepEqual(pr.Induct, want.Induct) {
			t.Errorf("induct=%t: Prove induct summary %+v, Tailor %+v", opts.Induct, pr.Induct, want.Induct)
		}
	}
}
