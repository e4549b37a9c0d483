package equiv

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bespoke/internal/cut"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sat"
)

// randNetlist builds a small random combinational netlist over nIn inputs
// with nGates gates, every gate reading earlier gates.
func randNetlist(rng *rand.Rand, nIn, nGates int) *netlist.Netlist {
	n := netlist.New()
	for i := 0; i < nIn; i++ {
		n.Add(netlist.Gate{Kind: netlist.Input})
	}
	kinds := []netlist.Kind{
		netlist.Buf, netlist.Not, netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Mux,
		netlist.Const0, netlist.Const1,
	}
	for i := 0; i < nGates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		var g netlist.Gate
		g.Kind = k
		prev := netlist.GateID(len(n.Gates))
		for p := 0; p < k.NumInputs(); p++ {
			g.In[p] = netlist.GateID(rng.Intn(int(prev)))
		}
		n.Add(g)
	}
	n.MarkOutput("y", netlist.GateID(len(n.Gates)-1))
	return n
}

// evalConcrete evaluates the netlist for one concrete input assignment.
func evalConcrete(n *netlist.Netlist, inputs uint64) []logic.V {
	vals := make([]logic.V, len(n.Gates))
	for i, id := range n.Inputs {
		vals[id] = logic.FromBool(inputs>>uint(i)&1 == 1)
	}
	topo, err := n.TopoOrder()
	if err != nil {
		panic(err)
	}
	at := func(id netlist.GateID) logic.V {
		if id == netlist.None {
			return logic.X
		}
		return vals[id]
	}
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case netlist.Const0:
			vals[i] = logic.Zero
		case netlist.Const1:
			vals[i] = logic.One
		}
	}
	for _, id := range topo {
		g := &n.Gates[id]
		vals[id] = g.Kind.Eval(at(g.In[0]), at(g.In[1]), at(g.In[2]))
	}
	return vals
}

// crossCheck encodes n, then for a target gate and value compares "SAT:
// gate can be value" against exhaustive input enumeration.
func crossCheck(t *testing.T, n *netlist.Netlist, gate netlist.GateID, want logic.V) {
	t.Helper()
	s := sat.New()
	f, err := NewFrame(s, n, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	st, err := s.Solve(context.Background(), f.Lit(gate, want))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	reachable := false
	for m := uint64(0); m < 1<<uint(len(n.Inputs)); m++ {
		if evalConcrete(n, m)[gate] == want {
			reachable = true
			break
		}
	}
	if (st == sat.Sat) != reachable {
		t.Fatalf("gate %d = %s: solver %v, enumeration reachable=%v", gate, want, st, reachable)
	}
	if st == sat.Sat {
		// The model must be a real witness: plug its inputs back in.
		var m uint64
		for i, id := range n.Inputs {
			if s.Value(f.vars[id]) {
				m |= 1 << uint(i)
			}
		}
		if got := evalConcrete(n, m)[gate]; got != want {
			t.Fatalf("gate %d: model inputs %b give %s, want %s", gate, m, got, want)
		}
	}
}

func TestFrameVsExhaustive(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randNetlist(rng, 2+rng.Intn(5), 3+rng.Intn(10))
		gate := netlist.GateID(rng.Intn(len(n.Gates)))
		crossCheck(t, n, gate, logic.Zero)
		crossCheck(t, n, gate, logic.One)
	}
}

// FuzzCNF drives the same cross-check from the fuzzer: random small
// netlists, Tseitin-encoded, solver verdict checked against exhaustive
// 2^n input enumeration.
func FuzzCNF(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nIn := 1 + rng.Intn(7) // <= 7 inputs: 128 enumerations
		ng := 1 + rng.Intn(14) // <= 15 gates
		n := randNetlist(rng, nIn, ng)
		gate := netlist.GateID(rng.Intn(len(n.Gates)))
		crossCheck(t, n, gate, logic.Zero)
		crossCheck(t, n, gate, logic.One)
	})
}

// chainNetlist builds a design with a self-holding flip-flop (D = Q) that
// resets to 1, an inverter on it, and a live counter-ish path from an
// input so not everything is constant:
//
//	dff  q (reset 1, D=q)
//	not  nq = !q
//	and  a  = in & q
func chainNetlist() (*netlist.Netlist, netlist.GateID, netlist.GateID, netlist.GateID) {
	n := netlist.New()
	in := n.Add(netlist.Gate{Kind: netlist.Input, Name: "in"})
	q := n.Add(netlist.Gate{Kind: netlist.Dff, Reset: logic.One, Name: "q"})
	n.Gates[q].In[0] = q // self-hold
	nq := n.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{q, netlist.None, netlist.None}, Name: "nq"})
	a := n.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{in, q, netlist.None}, Name: "a"})
	n.MarkOutput("a", a)
	return n, q, nq, a
}

func TestProveClaimsChain(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	env := &Env{
		N: n,
		Claims: []cut.Claim{
			{Gate: q, Val: logic.One},
			{Gate: nq, Val: logic.Zero},
		},
	}
	rep, err := ProveClaims(context.Background(), env, Options{Workers: 1})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}
	if rep.Refuted != 0 {
		t.Fatalf("refuted %d claims: %+v", rep.Refuted, rep.Refutations())
	}
	if rep.ProvedStructural+rep.ProvedSAT != 2 {
		t.Fatalf("want both claims proved, got %+v", rep)
	}
}

func TestProveClaimsRefutesCorruption(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	env := &Env{
		N: n,
		Claims: []cut.Claim{
			{Gate: q, Val: logic.One},
			{Gate: nq, Val: logic.One}, // corrupted: !1 is 0
		},
	}
	rep, err := ProveClaims(context.Background(), env, Options{Workers: 1})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}
	if rep.Refuted != 1 {
		t.Fatalf("want 1 refutation, got %+v", rep)
	}
	ref := rep.Refutations()[0]
	if ref.Claim.Gate != nq {
		t.Fatalf("refuted gate %d, want %d", ref.Claim.Gate, nq)
	}
	if ref.Counterexample == nil {
		t.Fatal("refutation carries no counterexample")
	}
	if ref.Counterexample.Observed != logic.Zero {
		t.Fatalf("counterexample observes %s, want 0", ref.Counterexample.Observed)
	}
	// The honest claim must not be collateral damage.
	for _, cr := range rep.Results {
		if cr.Claim.Gate == q && cr.Verdict == Refuted {
			t.Fatal("honest flip-flop claim refuted")
		}
	}
}

// TestUnconstrainedIsAssumed checks the third verdict: a claim the
// environment cannot decide (a free input's buffer) is Assumed, not
// Refuted.
func TestUnconstrainedIsAssumed(t *testing.T) {
	n := netlist.New()
	in := n.Add(netlist.Gate{Kind: netlist.Input})
	b := n.Add(netlist.Gate{Kind: netlist.Buf, In: [3]netlist.GateID{in, netlist.None, netlist.None}})
	n.MarkOutput("b", b)
	env := &Env{N: n, Claims: []cut.Claim{{Gate: b, Val: logic.Zero}}}
	rep, err := ProveClaims(context.Background(), env, Options{Workers: 1})
	if err != nil {
		t.Fatalf("ProveClaims: %v", err)
	}
	if rep.Results[0].Verdict != Assumed {
		t.Fatalf("verdict %s, want assumed", rep.Results[0].Verdict)
	}
}

func TestMiterIdentical(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	env := &Env{N: n, Claims: []cut.Claim{{Gate: q, Val: logic.One}, {Gate: nq, Val: logic.Zero}}}
	bespoke := n.Clone()
	// Cut: q -> const1, nq -> const0.
	bespoke.Gates[q] = netlist.Gate{Kind: netlist.Const1, In: [3]netlist.GateID{netlist.None, netlist.None, netlist.None}}
	bespoke.Gates[nq] = netlist.Gate{Kind: netlist.Const0, In: [3]netlist.GateID{netlist.None, netlist.None, netlist.None}}
	res, err := ProveMiter(context.Background(), env, bespoke, nil, Options{})
	if err != nil {
		t.Fatalf("ProveMiter: %v", err)
	}
	if !res.Equivalent {
		t.Fatalf("correct cut reported inequivalent: %+v", res)
	}
}

func TestMiterCatchesWrongConstant(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	env := &Env{N: n, Claims: []cut.Claim{{Gate: q, Val: logic.One}}}
	bespoke := n.Clone()
	// Deliberately wrong: q is stitched to 0 although it holds 1.
	bespoke.Gates[q] = netlist.Gate{Kind: netlist.Const0, In: [3]netlist.GateID{netlist.None, netlist.None, netlist.None}}
	bespoke.Gates[nq].In[0] = q
	res, err := ProveMiter(context.Background(), env, bespoke, nil, Options{})
	if err != nil {
		t.Fatalf("ProveMiter: %v", err)
	}
	if res.Equivalent {
		t.Fatal("wrong constant not caught by miter")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample for inequivalence")
	}
}

// cutChain returns chainNetlist's correct cut: q stitched to 1, nq to 0.
func cutChain(n *netlist.Netlist, q, nq netlist.GateID) *netlist.Netlist {
	bespoke := n.Clone()
	bespoke.Gates[q] = netlist.Gate{Kind: netlist.Const1, In: [3]netlist.GateID{netlist.None, netlist.None, netlist.None}}
	bespoke.Gates[nq] = netlist.Gate{Kind: netlist.Const0, In: [3]netlist.GateID{netlist.None, netlist.None, netlist.None}}
	return bespoke
}

// TestMiterAssumedClaims: AssumedClaims counts the hypothesis claims
// without a formal proof — every claim when no report is passed, else
// those the report classified Assumed.
func TestMiterAssumedClaims(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	claims := []cut.Claim{{Gate: q, Val: logic.One}, {Gate: nq, Val: logic.Zero}}
	report := func(vs ...Verdict) *Report {
		r := &Report{}
		for i, v := range vs {
			r.Results = append(r.Results, ClaimResult{Claim: claims[i], Verdict: v})
		}
		return r
	}
	cases := []struct {
		name string
		rep  *Report
		want int
	}{
		{"nil report", nil, 2},
		{"all proved", report(ProvedStructural, ProvedSAT), 0},
		{"one assumed", report(ProvedStructural, Assumed), 1},
		{"all assumed", report(Assumed, Assumed), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ProveMiter(context.Background(), &Env{N: n, Claims: claims}, cutChain(n, q, nq), tc.rep, Options{})
			if err != nil {
				t.Fatalf("ProveMiter: %v", err)
			}
			if !res.Equivalent {
				t.Fatalf("correct cut reported inequivalent at %q", res.Mismatch)
			}
			if res.AssumedClaims != tc.want {
				t.Fatalf("AssumedClaims = %d, want %d", res.AssumedClaims, tc.want)
			}
		})
	}
}

// TestMiterRejectsShapeMismatch: a bespoke netlist whose gate or port
// table does not line up with the base, or a report over a different
// claim set, is an error, not a panic or a verdict.
func TestMiterRejectsShapeMismatch(t *testing.T) {
	n, q, nq, _ := chainNetlist()
	claims := []cut.Claim{{Gate: q, Val: logic.One}, {Gate: nq, Val: logic.Zero}}
	cases := []struct {
		name  string
		edit  func(b *netlist.Netlist)
		rep   *Report
		wantS string
	}{
		{"fewer outputs", func(b *netlist.Netlist) { b.Outputs = nil }, nil, "outputs"},
		{"extra output", func(b *netlist.Netlist) { b.MarkOutput("x", q) }, nil, "outputs"},
		{"fewer gates", func(b *netlist.Netlist) { b.Gates = b.Gates[:len(b.Gates)-1] }, nil, "gates"},
		{"short report", func(*netlist.Netlist) {}, &Report{Results: make([]ClaimResult, 1)}, "report"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bespoke := cutChain(n, q, nq)
			tc.edit(bespoke)
			res, err := ProveMiter(context.Background(), &Env{N: n, Claims: claims}, bespoke, tc.rep, Options{})
			if err == nil {
				t.Fatalf("want an error, got %+v", res)
			}
			if !strings.Contains(err.Error(), tc.wantS) {
				t.Fatalf("error %q does not mention %s", err, tc.wantS)
			}
		})
	}
}

// arrayMultiplier builds an n x n ripple-carry array multiplier over
// inputs a (gates 0..n-1) and b (gates n..2n-1) with outputs p0..p(2n-1).
// With swap it multiplies b by a instead: the same gate count and IDs,
// but most gates compute a different partial sum than their twin, and
// the outputs agree only by commutativity — a miter that needs search.
func arrayMultiplier(n int, swap bool) *netlist.Netlist {
	nl := netlist.New()
	gate := func(k netlist.Kind, a, b netlist.GateID) netlist.GateID {
		return nl.Add(netlist.Gate{Kind: k, In: [3]netlist.GateID{a, b, netlist.None}})
	}
	x, y := make([]netlist.GateID, n), make([]netlist.GateID, n)
	for i := range x {
		x[i] = nl.Add(netlist.Gate{Kind: netlist.Input})
	}
	for i := range y {
		y[i] = nl.Add(netlist.Gate{Kind: netlist.Input})
	}
	if swap {
		x, y = y, x
	}
	var acc, out []netlist.GateID
	for j := 0; j < n; j++ {
		acc = append(acc, gate(netlist.And, x[0], y[j]))
	}
	for i := 1; i < n; i++ {
		out = append(out, acc[0])
		next := make([]netlist.GateID, 0, n+1)
		carry := netlist.None
		for j := 0; j < n; j++ {
			pp := gate(netlist.And, x[i], y[j])
			switch {
			case j+1 == len(acc) && carry == netlist.None:
				next = append(next, pp)
			case j+1 == len(acc):
				next = append(next, gate(netlist.Xor, pp, carry))
				carry = gate(netlist.And, pp, carry)
			case carry == netlist.None:
				next = append(next, gate(netlist.Xor, pp, acc[j+1]))
				carry = gate(netlist.And, pp, acc[j+1])
			default:
				t := gate(netlist.Xor, pp, acc[j+1])
				next = append(next, gate(netlist.Xor, t, carry))
				carry = gate(netlist.Or, gate(netlist.And, pp, acc[j+1]), gate(netlist.And, t, carry))
			}
		}
		acc = append(next, carry)
	}
	for k, o := range append(out, acc...) {
		nl.MarkOutput(fmt.Sprintf("p%d", k), o)
	}
	return nl
}

// addNeedle appends to an arrayMultiplier netlist a detector for
// (a, b) == (ca, cb) XORed into product bit k. With rewire the port p<k>
// reads the XOR, so the design differs from the product on that single
// input pair only; without, the detector dangles and the gate count
// still matches.
func addNeedle(nl *netlist.Netlist, n, k int, ca, cb uint, rewire bool) {
	det := netlist.None
	for i := 0; i < 2*n; i++ {
		want := (ca|cb<<uint(n))>>uint(i)&1 == 1
		l := netlist.GateID(i)
		if !want {
			l = nl.Add(netlist.Gate{Kind: netlist.Not, In: [3]netlist.GateID{l, netlist.None, netlist.None}})
		}
		if det != netlist.None {
			l = nl.Add(netlist.Gate{Kind: netlist.And, In: [3]netlist.GateID{det, l, netlist.None}})
		}
		det = l
	}
	x := nl.Add(netlist.Gate{Kind: netlist.Xor, In: [3]netlist.GateID{nl.Outputs[k].Gate, det, netlist.None}})
	if rewire {
		nl.Outputs[k].Gate = x
	}
}

// TestMiterHardObligations: obligations the per-query conflict budget
// cannot settle go to the final unlimited solve. A 5x5 multiplier against
// its commuted twin is equivalent only by commutativity, which takes the
// solver thousands of conflicts; with a needle on one input pair, the
// budgeted check of p5 gives up and the final solve must find the pair.
// Both miters must agree.
func TestMiterHardObligations(t *testing.T) {
	const n = 5
	needle := func(swap bool) *netlist.Netlist {
		nl := arrayMultiplier(n, swap)
		addNeedle(nl, n, 5, 21, 13, swap)
		return nl
	}
	cases := []struct {
		name          string
		base, bespoke *netlist.Netlist
		equivalent    bool
		mismatch      string
	}{
		{"commuted", arrayMultiplier(n, false), arrayMultiplier(n, true), true, ""},
		{"commuted with needle", needle(false), needle(true), false, "output p5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := &Env{N: tc.base}
			got, err := ProveMiter(context.Background(), env, tc.bespoke, nil, Options{})
			if err != nil {
				t.Fatalf("ProveMiter: %v", err)
			}
			want, err := referenceMiter(context.Background(), env, tc.bespoke, nil, Options{})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if got.Equivalent != tc.equivalent || want.Equivalent != tc.equivalent {
				t.Fatalf("equivalent: swept %t, reference %t, want %t", got.Equivalent, want.Equivalent, tc.equivalent)
			}
			if got.Mismatch != tc.mismatch {
				t.Fatalf("mismatch %q, want %q", got.Mismatch, tc.mismatch)
			}
			if !tc.equivalent && got.Counterexample == nil {
				t.Fatal("inequivalence carries no counterexample")
			}
			if got.Conflicts <= sweepBudget {
				t.Fatalf("%d conflicts: no obligation outgrew the %d-conflict budget, so the final solve went untested", got.Conflicts, sweepBudget)
			}
		})
	}
}

// TestLeaveOneOut: every position's list holds each other literal exactly
// once, the virtual position n holds them all in order, and consecutive
// positions share all but a logarithmic tail — the property that lets a
// trail-keeping solver skip re-propagating the common prefix.
func TestLeaveOneOut(t *testing.T) {
	for n := 0; n <= 40; n++ {
		lits := make([]sat.Lit, n)
		for i := range lits {
			lits[i] = sat.Pos(sat.Var(i))
		}
		var prev []sat.Lit
		pushed := 0
		for pos := 0; pos <= n; pos++ {
			got := leaveOneOut(nil, lits, pos)
			seen := make(map[sat.Lit]bool, n)
			for _, l := range got {
				if seen[l] || l == sat.Pos(sat.Var(pos)) {
					t.Fatalf("n=%d pos=%d: %v repeats or includes the left-out literal", n, pos, got)
				}
				seen[l] = true
			}
			if want := n - 1; pos == n {
				want = n
				if fmt.Sprint(got) != fmt.Sprint(lits) {
					t.Fatalf("n=%d: virtual position gives %v, want every literal in order", n, got)
				}
			} else if len(got) != want {
				t.Fatalf("n=%d pos=%d: %d literals, want %d", n, pos, len(got), want)
			}
			shared := 0
			for shared < len(prev) && shared < len(got) && prev[shared] == got[shared] {
				shared++
			}
			pushed += len(got) - shared
			prev = got
		}
		// A sweep over all positions pushes at most n per halving level.
		levels := 1
		for 1<<levels < n {
			levels++
		}
		if pushed > n*(levels+1) {
			t.Fatalf("n=%d: consecutive lists re-push %d literals, want at most %d", n, pushed, n*(levels+1))
		}
	}
}
