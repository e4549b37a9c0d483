package induct_test

// Lives in an external test package so it can import bench (which pulls
// in core, and core imports induct).

import (
	"context"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/equiv"
	"bespoke/internal/induct"
	"bespoke/internal/symexec"
)

// TestHoudiniSearchPinned pins the exact search of one real Houdini run:
// the K=1 ladder on mult's claims. Models, not just verdicts, decide which
// candidates each round drops, so any solver change that perturbs the
// search (heap order among activity ties, phase saving, propagation
// order, trail handling between solves) moves these counts. A kernel
// optimization must leave them byte-identical.
func TestHoudiniSearchPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping real-core induction run")
	}
	ctx := context.Background()
	res, c, err := symexec.Analyze(ctx, bench.ByName("mult").MustProg(), symexec.Options{RecordDomains: true})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	env, err := equiv.NewCoreEnv(c, res)
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	spec, err := induct.NewCoreSpec(c, res, induct.DefaultSampleCycles)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	ires, err := induct.Prove(ctx, spec, env.Claims, induct.Options{K: 1})
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	const wantQueries, wantRounds, wantConflicts = 1106, 1106, 2546
	if ires.Queries != wantQueries || ires.Rounds != wantRounds || ires.Conflicts != wantConflicts {
		t.Fatalf("Houdini search moved: queries=%d rounds=%d conflicts=%d, want %d/%d/%d",
			ires.Queries, ires.Rounds, ires.Conflicts, wantQueries, wantRounds, wantConflicts)
	}
}
