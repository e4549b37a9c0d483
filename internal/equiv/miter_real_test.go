package equiv_test

// Real-benchmark tests of the swept miter: the monolithic reference
// (reference_test.go) as oracle on honest and corrupted bespoke
// netlists, and cancellation at every stage of the check.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bespoke/internal/cpu"
	"bespoke/internal/cut"
	"bespoke/internal/equiv"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
	"bespoke/internal/synth"
)

// cutAndSynth builds the bespoke netlist the flow proves: a clone of c
// cut to the analysis' constants, then re-synthesized with the memory
// macro pins kept alive.
func cutAndSynth(t *testing.T, c *cpu.Core, res *symexec.Result) *netlist.Netlist {
	t.Helper()
	bespoke := c.Clone()
	if _, err := cut.Apply(bespoke.N, res.Toggled, res.ConstVal); err != nil {
		t.Fatalf("cut: %v", err)
	}
	synth.Optimize(bespoke.N, append(bespoke.ROM.Inputs(), bespoke.RAM.Inputs()...))
	return bespoke.N
}

// bothMiters runs the swept miter and the monolithic reference on the
// same inputs and fails on any disagreement in verdict, obligation
// count, assumed claims or invariants.
func bothMiters(t *testing.T, env *equiv.Env, bespoke *netlist.Netlist, rep *equiv.Report) (got, want *equiv.MiterResult) {
	t.Helper()
	start := time.Now()
	got, err := equiv.ProveMiter(context.Background(), env, bespoke, rep, equiv.Options{})
	if err != nil {
		t.Fatalf("swept miter: %v", err)
	}
	swept := time.Since(start)
	start = time.Now()
	want, err = equiv.ReferenceMiter(context.Background(), env, bespoke, rep, equiv.Options{})
	if err != nil {
		t.Fatalf("reference miter: %v", err)
	}
	t.Logf("swept %v (%d queries, %d conflicts, %d merged), reference %v",
		swept.Round(time.Millisecond), got.SATQueries, got.Conflicts, got.Merged, time.Since(start).Round(time.Millisecond))
	if got.Equivalent != want.Equivalent || got.Obligations != want.Obligations ||
		got.AssumedClaims != want.AssumedClaims || got.Invariants != want.Invariants {
		t.Fatalf("swept miter (equivalent=%t obligations=%d assumed=%d invariants=%d) disagrees with the reference (%t %d %d %d)",
			got.Equivalent, got.Obligations, got.AssumedClaims, got.Invariants,
			want.Equivalent, want.Obligations, want.AssumedClaims, want.Invariants)
	}
	return got, want
}

// checkMismatch asserts an inequivalent result carries a counterexample
// and names one of the miter's obligations.
func checkMismatch(t *testing.T, env *equiv.Env, bespoke *netlist.Netlist, r *equiv.MiterResult) {
	t.Helper()
	if r.Equivalent {
		t.Fatal("corrupted netlist reported equivalent")
	}
	if r.Counterexample == nil {
		t.Error("inequivalence carries no counterexample")
	}
	names := map[string]bool{}
	for _, o := range env.N.Outputs {
		names["output "+o.Name] = true
	}
	for i := range bespoke.Gates {
		if bespoke.Gates[i].Kind == netlist.Dff {
			names[fmt.Sprintf("dff %d D-input", i)] = true
		}
	}
	pins := func(tag string, n int) {
		for k := 0; k < n; k++ {
			names[fmt.Sprintf("%s[%d]", tag, k)] = true
		}
	}
	pins("rom.addr", len(env.ROM.Addr))
	pins("rom.en", 1)
	pins("ram.addr", len(env.RAM.Addr))
	pins("ram.wdata", len(env.RAM.WData))
	pins("ram.ctl", 3)
	if !names[r.Mismatch] {
		t.Errorf("mismatch %q names no obligation", r.Mismatch)
	}
}

// TestMiterMatchesReference proves the flow's bespoke netlist (cut, then
// re-synthesized) equivalent with both miters and holds the swept one to
// the reference's verdict and tallies.
func TestMiterMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT miter oracle")
	}
	for _, name := range []string{"dbg", "mult"} {
		t.Run(name, func(t *testing.T) {
			env, res, c := analyzeBench(t, name)
			rep, err := equiv.ProveClaims(context.Background(), env, equiv.Options{})
			if err != nil {
				t.Fatalf("ProveClaims: %v", err)
			}
			bespoke := cutAndSynth(t, c, res)
			got, _ := bothMiters(t, env, bespoke, rep)
			if !got.Equivalent {
				t.Fatalf("honest bespoke netlist inequivalent at %q", got.Mismatch)
			}
			if got.Merged == 0 || got.SATQueries == 0 {
				t.Errorf("miter reports no work: %d merged, %d queries", got.Merged, got.SATQueries)
			}
		})
	}
}

// TestMiterCorruptionMatchesReference corrupts the flow's bespoke
// netlist two ways — a wrong stitched constant, and a surviving gate's
// kind flipped after synthesis — and requires both miters to report the
// inequivalence with a counterexample at a named obligation.
func TestMiterCorruptionMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT miter oracle")
	}
	env, res, c := analyzeBench(t, "dbg")
	rep, err := equiv.ProveClaims(context.Background(), env, equiv.Options{})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}

	t.Run("wrong-constant", func(t *testing.T) {
		// Victims: combinational claims proved structurally that feed
		// surviving logic. A wrong constant can still be masked
		// downstream, so try several; both miters must agree on each.
		feedsToggled := make([]bool, len(env.N.Gates))
		for i := range env.N.Gates {
			if !res.Toggled[i] {
				continue
			}
			for _, in := range env.N.Gates[i].In {
				if in != netlist.None {
					feedsToggled[in] = true
				}
			}
		}
		tried := 0
		for _, cr := range rep.Results {
			g := cr.Claim.Gate
			if cr.Verdict != equiv.ProvedStructural || env.N.Gates[g].Kind == netlist.Dff || !feedsToggled[g] {
				continue
			}
			if tried == 8 {
				break
			}
			tried++
			truth := res.ConstVal[g]
			res.ConstVal[g] = logic.Not(truth)
			bespoke := cutAndSynth(t, c, res)
			res.ConstVal[g] = truth
			got, want := bothMiters(t, env, bespoke, rep)
			if got.Equivalent {
				continue
			}
			t.Logf("gate %d stitched to %s: swept mismatch %q, reference %q", g, logic.Not(truth), got.Mismatch, want.Mismatch)
			checkMismatch(t, env, bespoke, got)
			checkMismatch(t, env, bespoke, want)
			return
		}
		t.Fatalf("no wrong constant among %d candidates reached an obligation", tried)
	})

	t.Run("flipped-kind", func(t *testing.T) {
		// Complement a surviving gate next to a kept flip-flop's D
		// input (the D driver itself or one of its operands) that
		// synthesis left identical to its base twin, so only its kind
		// tells the two apart. A mux select or an AND operand can
		// still mask the flip, so try several; both miters must agree
		// on each.
		complement := map[netlist.Kind]netlist.Kind{
			netlist.And: netlist.Nand, netlist.Nand: netlist.And,
			netlist.Or: netlist.Nor, netlist.Nor: netlist.Or,
			netlist.Xor: netlist.Xnor, netlist.Xnor: netlist.Xor,
		}
		honest := cutAndSynth(t, c, res)
		var victims []netlist.GateID
		for i := range honest.Gates {
			if honest.Gates[i].Kind != netlist.Dff {
				continue
			}
			d := honest.Gates[i].In[0]
			for _, g := range append([]netlist.GateID{d}, honest.Gates[d].In[:]...) {
				if g == netlist.None {
					continue
				}
				_, ok := complement[honest.Gates[g].Kind]
				if ok && honest.Gates[g] == env.N.Gates[g] && !slices.Contains(victims, g) {
					victims = append(victims, g)
				}
			}
		}
		for i, victim := range victims {
			if i == 8 {
				break
			}
			bespoke := honest.Clone()
			g := &bespoke.Gates[victim]
			g.Kind = complement[g.Kind]
			got, want := bothMiters(t, env, bespoke, rep)
			if got.Equivalent {
				continue
			}
			t.Logf("gate %d flipped to %s: swept mismatch %q, reference %q", victim, g.Kind, got.Mismatch, want.Mismatch)
			checkMismatch(t, env, bespoke, got)
			checkMismatch(t, env, bespoke, want)
			return
		}
		t.Fatalf("no flipped gate among %d candidates reached an obligation", min(len(victims), 8))
	})
}

// countdownCtx is a context whose Err reports cancellation from its
// n-th call on, so a test can cancel deterministically in the middle of
// a run of solver queries (every Solve polls Err on entry).
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestMiterCancellation: a cancelled or expired context aborts the miter
// with a *LimitError and no verdict — before the first solve, in the
// middle of the sweep, and on the way to the obligations.
func TestMiterCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping SAT miter cancellation")
	}
	env, res, c := analyzeBench(t, "dbg")
	rep, err := equiv.ProveClaims(context.Background(), env, equiv.Options{})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}
	bespoke := cutAndSynth(t, c, res)
	full, err := equiv.ProveMiter(context.Background(), env, bespoke, rep, equiv.Options{})
	if err != nil {
		t.Fatalf("uncancelled miter: %v", err)
	}

	countdown := func(n int64) func() (context.Context, context.CancelFunc) {
		return func() (context.Context, context.CancelFunc) {
			if full.SATQueries <= n {
				t.Fatalf("the uncancelled miter makes only %d queries; cancelling at call %d tests nothing", full.SATQueries, n)
			}
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(n)
			return ctx, func() {}
		}
	}
	cases := []struct {
		name   string
		ctx    func() (context.Context, context.CancelFunc)
		reason string
	}{
		{"pre-cancelled", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, "cancelled"},
		{"short-deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Millisecond)
		}, "deadline exceeded"},
		{"after-guard", countdown(1), "cancelled"},
		{"mid-sweep", countdown(full.SATQueries / 2), "cancelled"},
		{"last-query", countdown(full.SATQueries - 1), "cancelled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.ctx()
			defer cancel()
			mres, err := equiv.ProveMiter(ctx, env, bespoke, rep, equiv.Options{})
			var le *equiv.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("want *LimitError, got result %+v, error %v", mres, err)
			}
			if mres != nil {
				t.Errorf("aborted miter returned a verdict: %+v", mres)
			}
			if le.Reason != tc.reason {
				t.Errorf("reason %q, want %q", le.Reason, tc.reason)
			}
		})
	}
}
