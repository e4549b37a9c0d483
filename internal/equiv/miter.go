package equiv

import (
	"context"
	"fmt"

	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
)

// sweepBudget caps the conflicts of each budgeted miter query: the
// sweep's twin comparisons and the per-obligation checks. Twins that are
// equal almost always close within a handful of conflicts; an obligation
// the budget leaves open goes to the final unlimited solve, and a gate it
// leaves open just keeps its own variable.
const sweepBudget = 100

// MiterResult is the outcome of a base-vs-bespoke equivalence check.
type MiterResult struct {
	// Equivalent reports that no reachable frame can distinguish the
	// designs on any obligation, modulo AssumedClaims.
	Equivalent bool
	// Obligations is the number of compared net pairs.
	Obligations int
	// AssumedClaims counts the hypothesis claims the equivalence rests
	// on without a formal proof: those ProveClaims classified Assumed, or
	// every claim when no report was passed.
	AssumedClaims int
	// Invariants counts the proved reachable-state invariants encoded in
	// place of the recorded dynamic bus domains. When non-zero, the
	// miter carries NO dynamic hypotheses beyond AssumedClaims: every
	// environment constraint is either exact (ROM image, RAM gating) or
	// discharged by induction.
	Invariants int
	// Mismatch names the first differing obligation when inequivalent.
	Mismatch string
	// Counterexample is the distinguishing frame when inequivalent.
	Counterexample *Counterexample
	// SATQueries counts the Solve calls the check made: the consistency
	// guard, the sweep's twin comparisons, the obligation checks and the
	// final solve over the obligations the budget left open.
	SATQueries int64
	// Conflicts aggregates the solver conflicts behind those calls.
	Conflicts int64
	// Merged counts bespoke gates that share their base twin's CNF
	// variable: inputs, kept flip-flops, gates structurally identical
	// to their twin, constants the claims fix, and gates the sweep
	// proved equal to their twin.
	Merged int
}

// obligation is one net pair the miter must prove equal.
type obligation struct {
	name       string
	base, besp netlist.GateID
}

// ProveMiter checks the cut+re-synthesized bespoke netlist against the
// base design: under the induction hypothesis (kept flip-flops hold equal
// values, all non-refuted claims hold on the base side, memories hold
// equal contents) and the shared environment, every primary output, every
// kept flip-flop's next state, and every memory-macro input pin must be
// equal.
//
// The miter verifies the TRANSFORMATION — cutting plus resynthesis is
// faithful to the claim set. Claim VALIDITY is ProveClaims' job: pass its
// Report so refuted claims are excluded from the hypothesis (a corrupted
// constant then surfaces as an inequivalence instead of being assumed
// away). With a nil report every claim is assumed. Equivalence is modulo
// the claims ProveClaims classified Assumed; MiterResult.AssumedClaims
// counts them.
//
// The check is a SAT sweep on one incremental solver. Cutting keeps gate
// IDs, so every bespoke gate has a base twin; walking the bespoke netlist
// in topological order, each gate reuses its twin's variable when the
// two are structurally identical or a budgeted query proves them equal,
// so every obligation over untouched or provably unchanged logic closes
// without search. The obligations are then discharged one by one, and
// only those the budget leaves open enter a final unlimited solve.
//
// The context bounds every solve; cancellation aborts with a *LimitError.
func ProveMiter(ctx context.Context, env *Env, bespoke *netlist.Netlist, rep *Report, opts Options) (*MiterResult, error) {
	if err := checkEnv(env); err != nil {
		return nil, err
	}
	if len(bespoke.Gates) != len(env.N.Gates) {
		return nil, fmt.Errorf("equiv: bespoke netlist has %d gates, base %d (cutting must preserve IDs)",
			len(bespoke.Gates), len(env.N.Gates))
	}
	if len(bespoke.Outputs) != len(env.N.Outputs) {
		return nil, fmt.Errorf("equiv: bespoke netlist has %d outputs, base %d (cutting must preserve ports)",
			len(bespoke.Outputs), len(env.N.Outputs))
	}
	if rep != nil && len(rep.Results) != len(env.Claims) {
		return nil, fmt.Errorf("equiv: report covers %d claims, environment has %d", len(rep.Results), len(env.Claims))
	}
	s := sat.New()
	fb, err := NewFrame(s, env.N, nil)
	if err != nil {
		return nil, err
	}
	encodeEnv(fb, env)
	res := &MiterResult{Invariants: len(env.Invariants)}
	defer func() {
		st := s.Stats()
		res.SATQueries, res.Conflicts = st.Solves, st.Conflicts
	}()
	limit := func(err error) error { return &LimitError{Reason: ctxReason(ctx), Err: err} }

	// Induction hypothesis: every claim that ProveClaims did not refute
	// holds on the base side (on the bespoke side the cut gates are Const
	// cells).
	for i, c := range env.Claims {
		if rep == nil {
			res.AssumedClaims++
		} else {
			switch rep.Results[i].Verdict {
			case Refuted, Unproved:
				continue
			case Assumed:
				res.AssumedClaims++
			}
		}
		s.AddClause(fb.Lit(c.Gate, c.Val))
	}

	// Consistency guard: the environment plus hypothesis must be
	// satisfiable, otherwise "equivalent" would be vacuous.
	st, err := s.Solve(ctx)
	if err != nil {
		return nil, limit(err)
	}
	if st == sat.Unsat {
		return nil, fmt.Errorf("equiv: miter hypothesis is unsatisfiable (a claim contradicts the environment); run ProveClaims first")
	}

	s.SetBudget(sweepBudget)
	vars, err := sweep(ctx, s, fb, env.N, bespoke)
	if err != nil {
		if ctx.Err() != nil {
			return nil, limit(err)
		}
		return nil, err
	}
	for i, v := range vars {
		if v == fb.vars[i] {
			res.Merged++
		}
	}

	obs := obligations(env, bespoke)
	res.Obligations = len(obs)
	mismatch := func(o obligation) (*MiterResult, error) {
		// Project the model onto the base frame state; the claim slot
		// records the differing net.
		res.Mismatch = o.name
		res.Counterexample = captureModel(s, fb, env, cut.Claim{Gate: o.base, Val: logic.X})
		return res, nil
	}
	var open []obligation
	for _, o := range obs {
		a, b := fb.vars[o.base], vars[o.besp]
		if a == b {
			continue
		}
		st, err := differ(ctx, s, a, b)
		if err != nil {
			return nil, limit(err)
		}
		switch st {
		case sat.Sat:
			return mismatch(o)
		case sat.Unknown:
			open = append(open, o)
		}
	}
	if len(open) == 0 {
		res.Equivalent = true
		return res, nil
	}

	// Assert that some open obligation differs.
	diffs := make([]sat.Lit, len(open))
	for i, o := range open {
		diffs[i] = sat.Pos(xorVar(s, fb.vars[o.base], vars[o.besp]))
	}
	s.AddClause(diffs...)
	s.SetBudget(0)
	st, err = s.Solve(ctx)
	if err != nil {
		return nil, limit(err)
	}
	switch st {
	case sat.Unsat:
		res.Equivalent = true
		return res, nil
	case sat.Sat:
		for i, o := range open {
			if s.Value(diffs[i].Var()) {
				return mismatch(o)
			}
		}
		return mismatch(open[0])
	}
	return nil, fmt.Errorf("equiv: miter solve exhausted its budget")
}

// sweep gives every bespoke gate a CNF variable on s and returns them,
// indexed by GateID. A gate
// takes its base twin's variable (same ID in fb) when the two provably
// agree under the clauses on s: inputs and kept flip-flops always, a
// constant when the hypothesis fixes its twin to the same value, a gate
// of the twin's kind whose pins map to the twin's pin variables, and any
// other gate whose budgeted difference queries are both UNSAT. Every
// other gate keeps its own Tseitin-encoded variable. Gates are visited in
// topological order, so each merge lets downstream gates match
// structurally.
func sweep(ctx context.Context, s *sat.Solver, fb *Frame, base, bespoke *netlist.Netlist) ([]sat.Var, error) {
	vars := make([]sat.Var, len(bespoke.Gates))
	for i := range bespoke.Gates {
		twin := fb.vars[i]
		switch k := bespoke.Gates[i].Kind; k {
		case netlist.Input, netlist.Dff:
			vars[i] = twin
		case netlist.Const0, netlist.Const1:
			if val, ok := s.Fixed(twin); ok && val == (k == netlist.Const1) {
				vars[i] = twin
				continue
			}
			vars[i] = s.NewVar()
			if err := encodeGate(s, bespoke, netlist.GateID(i), vars); err != nil {
				return nil, err
			}
		}
	}
	order, err := bespoke.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		twin := fb.vars[id]
		if sameFunction(&bespoke.Gates[id], &base.Gates[id], vars, fb.vars) {
			vars[id] = twin
			continue
		}
		v := s.NewVar()
		vars[id] = v
		if err := encodeGate(s, bespoke, id, vars); err != nil {
			return nil, err
		}
		st, err := differ(ctx, s, v, twin)
		if err != nil {
			return nil, err
		}
		if st == sat.Unsat {
			s.AddClause(sat.Neg(v), sat.Pos(twin))
			s.AddClause(sat.Pos(v), sat.Neg(twin))
			vars[id] = twin
		}
	}
	return vars, nil
}

// sameFunction reports whether bespoke gate gb and base gate ga have the
// same kind and read the same variables on every pin, so they compute the
// identical function and can share one variable.
func sameFunction(gb, ga *netlist.Gate, bvars, avars []sat.Var) bool {
	if gb.Kind != ga.Kind {
		return false
	}
	for p := 0; p < gb.Kind.NumInputs(); p++ {
		if gb.In[p] == netlist.None || ga.In[p] == netlist.None || bvars[gb.In[p]] != avars[ga.In[p]] {
			return false
		}
	}
	return true
}

// differ asks whether a and b can differ under the clauses on s, one
// direction at a time under the solver's budget: Sat (model available)
// when some direction is satisfiable, Unsat when both are refuted, and
// Unknown when the budget ran out without a model.
func differ(ctx context.Context, s *sat.Solver, a, b sat.Var) (sat.Status, error) {
	verdict := sat.Unsat
	for _, neg := range [2]bool{false, true} {
		st, err := s.Solve(ctx, sat.MkLit(a, neg), sat.MkLit(b, !neg))
		if err != nil {
			return sat.Unknown, err
		}
		if st == sat.Sat {
			return sat.Sat, nil
		}
		if st == sat.Unknown {
			verdict = sat.Unknown
		}
	}
	return verdict, nil
}

// obligations lists the net pairs the miter must prove equal: primary
// outputs, kept flip-flops' D inputs, and memory-macro input pins.
func obligations(env *Env, bespoke *netlist.Netlist) []obligation {
	var obs []obligation
	for i, o := range env.N.Outputs {
		obs = append(obs, obligation{name: "output " + o.Name, base: o.Gate, besp: bespoke.Outputs[i].Gate})
	}
	for i := range bespoke.Gates {
		if bespoke.Gates[i].Kind == netlist.Dff {
			obs = append(obs, obligation{
				name: fmt.Sprintf("dff %d D-input", i),
				base: env.N.Gates[i].In[0], besp: bespoke.Gates[i].In[0],
			})
		}
	}
	addPins := func(tag string, pins []netlist.GateID) {
		for k, p := range pins {
			obs = append(obs, obligation{name: fmt.Sprintf("%s[%d]", tag, k), base: p, besp: p})
		}
	}
	if env.ROM != nil {
		addPins("rom.addr", env.ROM.Addr)
		addPins("rom.en", []netlist.GateID{env.ROM.En})
	}
	if env.RAM != nil {
		addPins("ram.addr", env.RAM.Addr)
		addPins("ram.wdata", env.RAM.WData)
		addPins("ram.ctl", []netlist.GateID{env.RAM.En, env.RAM.WEnLo, env.RAM.WEnHi})
	}
	return obs
}
