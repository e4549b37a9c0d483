package sat

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// runIncrementalTrial builds one random instance on a fresh solver and
// fires a sequence of assumption queries at the SAME solver, cross-checking
// every answer against exhaustive enumeration and validating every Sat
// model. This is the regression net for incremental-solving state bugs
// (stale seen flags, watch corruption, bogus level-0 units): a wrong
// answer on query k>0 that a fresh solver would get right.
func runIncrementalTrial(t *testing.T, seed int64, nvMin, nvSpread, ncBase int, ncScale float64, queries, maxAssume int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nv := nvMin + rng.Intn(nvSpread)
	s := New()
	vars := make([]Var, nv)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	var clauses [][]Lit
	nc := ncBase + int(float64(nv)*ncScale) + rng.Intn(8)
	for i := 0; i < nc; i++ {
		k := 3
		if ncScale == 0 {
			k = 1 + rng.Intn(3)
		}
		var cl []Lit
		for j := 0; j < k; j++ {
			cl = append(cl, MkLit(vars[rng.Intn(nv)], rng.Intn(2) == 1))
		}
		clauses = append(clauses, cl)
		if !s.AddClause(cl...) {
			return // top-level unsat during construction; nothing to query
		}
	}
	eval := func(m uint64, cl []Lit) bool {
		for _, l := range cl {
			bit := m>>uint(l.Var())&1 == 1
			if bit != l.Negated() {
				return true
			}
		}
		return false
	}
	for q := 0; q < queries; q++ {
		na := rng.Intn(maxAssume + 1)
		var as []Lit
		amask, aval := uint64(0), uint64(0)
		consistent := true
		for j := 0; j < na; j++ {
			v := rng.Intn(nv)
			neg := rng.Intn(2) == 1
			as = append(as, MkLit(vars[v], neg))
			bit := uint64(0)
			if !neg {
				bit = 1
			}
			if amask>>uint(v)&1 == 1 && (aval>>uint(v)&1) != bit {
				consistent = false
			}
			amask |= 1 << uint(v)
			if bit == 1 {
				aval |= 1 << uint(v)
			}
		}
		want := false
		if consistent {
			for m := uint64(0); m < 1<<uint(nv); m++ {
				if m&amask != aval {
					continue
				}
				good := true
				for _, cl := range clauses {
					if !eval(m, cl) {
						good = false
						break
					}
				}
				if good {
					want = true
					break
				}
			}
		}
		st, err := s.Solve(context.Background(), as...)
		if err != nil {
			t.Fatal(err)
		}
		if (st == Sat) != want {
			t.Fatalf("seed %d query %d: solver %v, brute force sat=%v (assumptions %v)", seed, q, st, want, as)
		}
		if st == Sat {
			var m uint64
			for i, v := range vars {
				if s.Value(v) {
					m |= 1 << uint(i)
				}
			}
			if m&amask != aval {
				t.Fatalf("seed %d query %d: model violates assumptions %v", seed, q, as)
			}
			for ci, cl := range clauses {
				if !eval(m, cl) {
					t.Fatalf("seed %d query %d: model violates clause %d (%v)", seed, q, ci, cl)
				}
			}
		}
	}
}

// TestIncrementalVsBruteForce: many small instances, mixed clause widths,
// 30 queries each on the same solver.
func TestIncrementalVsBruteForce(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		runIncrementalTrial(t, int64(trial), 4, 6, 5, 0, 30, 3)
	}
}

// TestIncrementalHard: larger 3-CNF instances near the phase transition so
// the queries generate real conflicts, learnt clauses and minimization.
// This is the regression test for the stale-seen leak in clause
// minimization that strengthened later learnt clauses into unsound ones.
func TestIncrementalHard(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		runIncrementalTrial(t, int64(1000+trial), 12, 5, 0, 4.1, 25, 4)
	}
}

// trailOracle is the brute-force reference for one solver under test:
// it mirrors every clause and variable the solver is given and decides
// queries by enumeration.
type trailOracle struct {
	nv      int
	clauses [][]Lit
}

// sat reports whether the clauses plus the assumptions have a model.
func (o *trailOracle) sat(as []Lit) bool {
	for m := uint64(0); m < 1<<uint(o.nv); m++ {
		if o.holds(m, as) {
			return true
		}
	}
	return false
}

// holds reports whether assignment m satisfies every clause and every
// assumption.
func (o *trailOracle) holds(m uint64, as []Lit) bool {
	truth := func(l Lit) bool { return (m>>uint(l.Var())&1 == 1) != l.Negated() }
	for _, a := range as {
		if !truth(a) {
			return false
		}
	}
	for _, cl := range o.clauses {
		ok := false
		for _, l := range cl {
			if truth(l) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// nextAssumptions derives a query's assumption list from the previous
// one the way incremental callers do: keep a prefix and extend it,
// insert, remove, reorder or repeat literals, or start afresh.
func nextAssumptions(rng *rand.Rand, prev []Lit, nv, maxLen int) []Lit {
	lit := func() Lit { return MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 1) }
	as := append([]Lit(nil), prev...)
	switch op := rng.Intn(7); {
	case op == 0 || len(as) == 0: // shared prefix, fresh tail
		as = as[:rng.Intn(len(as)+1)]
		for n := rng.Intn(3); n >= 0 && len(as) < maxLen; n-- {
			as = append(as, lit())
		}
	case op == 1: // insert
		i := rng.Intn(len(as) + 1)
		as = append(as[:i], append([]Lit{lit()}, as[i:]...)...)
	case op == 2: // remove
		i := rng.Intn(len(as))
		as = append(as[:i], as[i+1:]...)
	case op == 3: // reorder
		i, j := rng.Intn(len(as)), rng.Intn(len(as))
		as[i], as[j] = as[j], as[i]
	case op == 4: // repeat a literal
		as = append(as, as[rng.Intn(len(as))])
	case op == 5: // flip the last literal
		as[len(as)-1] = as[len(as)-1].Not()
	default: // afresh
		as = as[:0]
		for n := rng.Intn(maxLen + 1); n > 0; n-- {
			as = append(as, lit())
		}
	}
	if len(as) > maxLen {
		as = as[len(as)-maxLen:]
	}
	return as
}

// checkKeptTrail asserts Solve's trail contract after a call under
// assumptions as: every assumption level survives Sat, the top level goes
// after Unsat, nothing survives Unknown, and the kept levels are the
// ones as opened.
func checkKeptTrail(t *testing.T, s *Solver, st Status, as []Lit) {
	t.Helper()
	kept := len(s.lim)
	switch {
	case st == Sat && kept != len(as),
		st == Unsat && kept > 0 && kept >= len(as),
		st == Unknown && kept != 0:
		t.Fatalf("%v under %d assumptions kept %d levels", st, len(as), kept)
	}
	if !slices.Equal(s.kept[:kept], as[:kept]) {
		t.Fatalf("kept levels record assumptions %v, want %v", s.kept[:kept], as[:kept])
	}
}

// runTrailReuseTrial fires a stream of related queries at ONE solver,
// mutating it in between, and checks every answer against enumeration.
// Consecutive assumption lists share prefixes, so the solver's kept
// trail is exercised: a level kept when it should have been dropped
// (mid-conflict after Unsat, partial after a budget or context abort)
// or a kept level surviving a clause it violates shows up as a wrong
// answer, a model violating a clause, or a failed-assumption set that
// is not itself contradictory.
func runTrailReuseTrial(t *testing.T, seed int64, queries int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New()
	o := &trailOracle{}
	addVar := func() Var {
		v := s.NewVar()
		if int(v) != o.nv {
			t.Fatalf("seed %d: NewVar returned %d, want %d", seed, v, o.nv)
		}
		o.nv++
		return v
	}
	addClause := func(cl ...Lit) {
		o.clauses = append(o.clauses, append([]Lit(nil), cl...))
		s.AddClause(cl...)
	}
	for n := 8 + rng.Intn(4); n > 0; n-- {
		addVar()
	}
	for n := int(float64(o.nv)*3.2) + rng.Intn(6); n > 0; n-- {
		addClause(MkLit(Var(rng.Intn(o.nv)), rng.Intn(2) == 1),
			MkLit(Var(rng.Intn(o.nv)), rng.Intn(2) == 1),
			MkLit(Var(rng.Intn(o.nv)), rng.Intn(2) == 1))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var as []Lit
	for q := 0; q < queries; q++ {
		as = nextAssumptions(rng, as, o.nv, 6)

		// Mutate the solver between solves, as Houdini rounds and the
		// miter sweep do.
		switch rng.Intn(16) {
		case 0: // a unit
			addClause(MkLit(Var(rng.Intn(o.nv)), rng.Intn(2) == 1))
		case 1: // a clause the kept trail falsifies: negated assumptions
			if len(as) > 0 {
				var cl []Lit
				for n := 2 + rng.Intn(2); n > 0; n-- {
					cl = append(cl, as[rng.Intn(len(as))].Not())
				}
				addClause(cl...)
			}
		case 2: // a fresh variable tied into the instance
			if o.nv < 14 {
				v := addVar()
				addClause(Neg(v), MkLit(Var(rng.Intn(o.nv-1)), rng.Intn(2) == 1))
				addClause(Pos(v), MkLit(Var(rng.Intn(o.nv-1)), rng.Intn(2) == 1),
					MkLit(Var(rng.Intn(o.nv-1)), rng.Intn(2) == 1))
				if rng.Intn(2) == 0 {
					as = append(as, MkLit(v, rng.Intn(2) == 1))
				}
			}
		case 3: // an aborted solve in between
			if rng.Intn(2) == 0 {
				// A permanently contradictory database answers Unsat
				// before looking at the context.
				st, err := s.Solve(cancelled, as...)
				if (st != Unknown || err == nil) && (st != Unsat || o.sat(nil)) {
					t.Fatalf("seed %d query %d: cancelled solve returned %v, %v", seed, q, st, err)
				}
				checkKeptTrail(t, s, st, as)
			} else {
				s.SetBudget(1)
				st, err := s.Solve(context.Background(), as...)
				s.SetBudget(0)
				if err != nil {
					t.Fatal(err)
				}
				if st != Unknown && (st == Sat) != o.sat(as) {
					t.Fatalf("seed %d query %d: budgeted solve answered %v wrongly", seed, q, st)
				}
				checkKeptTrail(t, s, st, as)
			}
		}

		want := o.sat(as)
		st, err := s.Solve(context.Background(), as...)
		if err != nil {
			t.Fatal(err)
		}
		if st == Unknown || (st == Sat) != want {
			t.Fatalf("seed %d query %d: solver %v, brute force sat=%v (assumptions %v)", seed, q, st, want, as)
		}
		checkKeptTrail(t, s, st, as)
		if st == Sat {
			var m uint64
			for v := 0; v < o.nv; v++ {
				if s.Value(Var(v)) {
					m |= 1 << uint(v)
				}
			}
			if !o.holds(m, as) {
				t.Fatalf("seed %d query %d: model violates the clauses or assumptions %v", seed, q, as)
			}
			continue
		}
		failed := s.FailedAssumptions()
		for _, l := range failed {
			if !slices.Contains(as, l) {
				t.Fatalf("seed %d query %d: failed assumption %v was not assumed (%v)", seed, q, l, as)
			}
		}
		fresh := New()
		for v := 0; v < o.nv; v++ {
			fresh.NewVar()
		}
		for _, cl := range o.clauses {
			fresh.AddClause(cl...)
		}
		if st, _ := fresh.Solve(context.Background(), failed...); st != Unsat {
			t.Fatalf("seed %d query %d: failed assumptions %v are %v on a fresh solver", seed, q, failed, st)
		}
		if len(failed) == 0 {
			return // the database itself is contradictory: nothing left to query
		}
	}
}

// TestTrailReuseVsBruteForce: query streams with shared, edited and
// repeated assumption prefixes, interleaved with clause additions, fresh
// variables and aborted solves, all on one solver per trial.
func TestTrailReuseVsBruteForce(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		runTrailReuseTrial(t, int64(5000+trial), 60)
	}
}
