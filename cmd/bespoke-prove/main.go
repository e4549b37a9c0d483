// Command bespoke-prove formally verifies the constants the tailoring
// flow wants to stitch: for each target application it runs the flow up
// to its formal gate (core.Prove): the activity analysis, cut, resynth
// and the lint gate, then every claimed constant as a SAT proof
// obligation (implied by the program image and the recorded reachable
// bus values), and the cut+re-synthesized netlist against the baseline
// with a miter.
//
// Usage:
//
//	bespoke-prove -bench mult          # one Table 1 benchmark
//	bespoke-prove -bench all           # the whole suite
//	bespoke-prove -induct -bench all   # with inductive strengthening
//	bespoke-prove prog.s [more.s]      # assembly files
//
// With -induct, the static invariant engine (internal/induct) first
// infers and discharges reachable-state invariants by k-induction; the
// per-claim proofs and the miter then consume those PROVED facts instead
// of the dynamically recorded bus domains, and claims in the inductive
// core are upgraded; every dynamically recorded bus value must lie
// inside the proved invariants, or the run fails as a soundness bug. -k
// caps the induction ladder depth, -invariants prints the per-benchmark
// proved-invariant table, and -max-assumed N fails the sweep (exit 1)
// when the total of assumed claims exceeds N — the CI gate that keeps
// the assumption tail from regressing.
//
// The exit status is 0 when every claim is proved or explicitly assumed
// and the miter holds, 1 when any claim is refuted, a miter fails, or
// -max-assumed is exceeded, 2 on usage, flow or timeout errors. With
// -timeout, partial progress made before the deadline is still reported.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/bench"
	"bespoke/internal/core"
	"bespoke/internal/equiv"
)

type target struct {
	name string
	prog *asm.Program
}

// result is one target's proof outcome.
type result struct {
	Name     string  `json:"name"`
	Claims   int     `json:"claims"`
	Proved   int     `json:"proved"` // structural + SAT + induction
	Struct   int     `json:"proved_structural"`
	SAT      int     `json:"proved_sat"`
	Induct   int     `json:"proved_induct,omitempty"`
	Assumed  int     `json:"assumed"`
	Refuted  int     `json:"refuted"`
	Queries  int64   `json:"sat_queries"`
	Miter    bool    `json:"miter_equivalent"`
	MiterObs int     `json:"miter_obligations"`
	Ms       float64 `json:"ms"`
	Timeout  bool    `json:"timeout,omitempty"`
	Error    string  `json:"error,omitempty"`

	// Miter work: solver calls, their conflicts, and bespoke gates
	// merged onto their base twin's variable.
	MiterQueries   int64 `json:"miter_sat_queries"`
	MiterConflicts int64 `json:"miter_conflicts"`
	MiterMerged    int   `json:"miter_merged"`

	// Inductive strengthening summary (present with -induct).
	K              int            `json:"induct_k,omitempty"`
	Invariants     int            `json:"invariants,omitempty"`
	InvariantsUsed int            `json:"invariants_used,omitempty"`
	Candidates     int            `json:"induct_candidates,omitempty"`
	InductRounds   int            `json:"induct_rounds,omitempty"`
	InductQueries  int64          `json:"induct_queries,omitempty"`
	InductConfl    int64          `json:"induct_conflicts,omitempty"`
	InvariantTable []invariantRow `json:"invariant_table,omitempty"`
}

// invariantRow is one proved invariant with its per-claim-proof use count.
type invariantRow struct {
	Name  string `json:"name"`
	K     int    `json:"k"`
	Cubes int    `json:"cubes,omitempty"`
	Used  int    `json:"used"`
}

func main() {
	benches := flag.String("bench", "", `comma-separated Table 1 benchmark names, or "all"`)
	jsonOut := flag.Bool("json", false, "emit the results as JSON")
	workers := flag.Int("workers", 0, "parallel proof workers (0 = all cores)")
	budget := flag.Int64("budget", 0, "per-query conflict budget (0 = default)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
	useInduct := flag.Bool("induct", false, "infer and prove reachable-state invariants by k-induction; drop the dynamic-domain hypotheses")
	kDepth := flag.Int("k", 0, "maximum induction ladder depth with -induct (0 = engine default)")
	showInv := flag.Bool("invariants", false, "print the proved-invariant table per benchmark (implies -induct)")
	maxAssumed := flag.Int("max-assumed", -1, "exit 1 when the sweep's total assumed claims exceed this (-1 = no gate)")
	flag.Parse()
	if *showInv {
		*useInduct = true
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	targets, err := gather(*benches, flag.Args())
	if err != nil {
		fatal(err)
	}

	opts := core.Options{
		ProveOpts: equiv.Options{Workers: *workers, QueryBudget: *budget},
		Induct:    *useInduct,
		InductK:   *kDepth,
	}
	exit := 0
	totalAssumed := 0
	var results []result
	for _, tg := range targets {
		r := prove(ctx, tg, opts)
		results = append(results, r)
		totalAssumed += r.Assumed
		if !*jsonOut {
			writeText(os.Stdout, r)
			if *showInv && len(r.InvariantTable) > 0 {
				writeInvariants(os.Stdout, r)
			}
		}
		if r.Refuted > 0 || (r.Error == "" && !r.Miter) {
			if exit < 1 {
				exit = 1
			}
		}
		if r.Error != "" || r.Timeout {
			exit = 2
		}
	}
	if *maxAssumed >= 0 && totalAssumed > *maxAssumed {
		fmt.Fprintf(os.Stderr, "bespoke-prove: %d claims assumed across the sweep, budget is %d\n",
			totalAssumed, *maxAssumed)
		if exit < 1 {
			exit = 1
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal(err)
		}
	}
	os.Exit(exit)
}

// gather resolves benchmark names and assembly files into targets.
func gather(benches string, files []string) ([]target, error) {
	var targets []target
	if benches == "all" {
		for _, b := range bench.All() {
			targets = append(targets, target{name: b.Name, prog: b.MustProg()})
		}
	} else if benches != "" {
		for _, name := range strings.Split(benches, ",") {
			b := bench.ByName(strings.TrimSpace(name))
			if b == nil {
				return nil, fmt.Errorf("unknown benchmark %q (see internal/bench)", name)
			}
			targets = append(targets, target{name: b.Name, prog: b.MustProg()})
		}
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		p, err := asm.Assemble(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		targets = append(targets, target{name: f, prog: p})
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("nothing to prove: pass -bench names or assembly files")
	}
	return targets, nil
}

// prove runs core.Prove for one target and maps its outcome onto a
// result row. Errors and timeouts are folded into the row so a sweep
// keeps going; a timeout keeps the tallies decided before it.
func prove(ctx context.Context, tg target, opts core.Options) (r result) {
	r = result{Name: tg.name}
	start := time.Now()
	defer func() { r.Ms = float64(time.Since(start).Microseconds()) / 1000 }()

	pr, err := core.Prove(ctx, tg.prog, opts)
	if err != nil {
		var le *equiv.LimitError
		if !errors.As(err, &le) || pr == nil {
			r.Error = err.Error()
			return r
		}
		r.Timeout = true
	}
	rep := pr.Claims
	r.Claims = len(rep.Results)
	r.Struct = rep.ProvedStructural
	r.SAT = rep.ProvedSAT
	r.Induct = rep.ProvedInduct
	r.Proved = rep.Proved()
	r.Assumed = rep.Assumed
	r.Refuted = rep.Refuted
	r.Queries = rep.SATQueries
	if s := pr.Induct; s != nil {
		r.K = s.K
		r.Invariants = s.Invariants
		r.Candidates = s.Candidates
		r.InductRounds = s.Rounds
		r.InductQueries = s.Queries
		r.InductConfl = s.Conflicts
		for _, iv := range s.Provenance.Invariants {
			r.InvariantTable = append(r.InvariantTable, invariantRow(iv))
			if iv.Used > 0 {
				r.InvariantsUsed++
			}
		}
	}
	if m := pr.Miter; m != nil {
		r.Miter = m.Equivalent
		r.MiterObs = m.Obligations
		r.MiterQueries = m.SATQueries
		r.MiterConflicts = m.Conflicts
		r.MiterMerged = m.Merged
	}
	return r
}

func writeText(w *os.File, r result) {
	if r.Error != "" {
		fmt.Fprintf(w, "%-18s ERROR: %s\n", r.Name, r.Error)
		return
	}
	status := "proved"
	if r.Refuted > 0 {
		status = "REFUTED"
	} else if r.Timeout {
		status = "timeout (partial)"
	} else if r.MiterObs > 0 && !r.Miter {
		status = "MITER FAILED"
	}
	miter := "-"
	if r.MiterObs > 0 {
		verdict := "ok"
		if !r.Miter {
			verdict = "FAIL"
		}
		miter = fmt.Sprintf("%s/%d (%d queries, %d conflicts, %d merged)",
			verdict, r.MiterObs, r.MiterQueries, r.MiterConflicts, r.MiterMerged)
	}
	ind := ""
	if r.K > 0 {
		ind = fmt.Sprintf(" %4d induct(k=%d, %d/%d inv used)", r.Induct, r.K, r.InvariantsUsed, r.Invariants)
	}
	fmt.Fprintf(w, "%-18s %5d claims: %5d structural %5d sat%s %4d assumed %3d refuted  miter %-8s %7.0fms  %s\n",
		r.Name, r.Claims, r.Struct, r.SAT, ind, r.Assumed, r.Refuted, miter, r.Ms, status)
}

// writeInvariants prints the per-benchmark proved-invariant table.
func writeInvariants(w *os.File, r result) {
	for _, row := range r.InvariantTable {
		shape := "implication"
		if row.Cubes > 0 {
			shape = fmt.Sprintf("%d cubes", row.Cubes)
		}
		fmt.Fprintf(w, "    %-28s k=%d  %-12s used by %d proofs\n", row.Name, row.K, shape, row.Used)
	}
}

func fatal(err error) {
	var fe *core.FlowError
	if errors.As(err, &fe) {
		fmt.Fprintf(os.Stderr, "bespoke-prove: the %s stage failed\n", fe.Stage)
		fmt.Fprintf(os.Stderr, "bespoke-prove:   %v\n", fe.Err)
	} else {
		fmt.Fprintln(os.Stderr, "bespoke-prove:", err)
	}
	os.Exit(2)
}
