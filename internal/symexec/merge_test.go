package symexec

import (
	"slices"
	"testing"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// oneGate is a single-gate result: toggled, or static at c.
func oneGate(toggled bool, c logic.V) *Result {
	return &Result{Toggled: []bool{toggled}, ConstVal: []logic.V{c}, Paths: 1, Cycles: 10, Merges: 2}
}

func TestMergeAndMissing(t *testing.T) {
	cases := []struct {
		name     string
		a, b     *Result
		kept     bool // Merge keeps the gate
		missing  bool // a.Missing(b) names it
		constVal logic.V
	}{
		{"toggled in b only", oneGate(false, logic.Zero), oneGate(true, logic.X), true, true, logic.Zero},
		{"toggled in a only", oneGate(true, logic.X), oneGate(false, logic.One), true, false, logic.X},
		{"static at the same constant", oneGate(false, logic.One), oneGate(false, logic.One), false, false, logic.One},
		{"static at different constants", oneGate(false, logic.Zero), oneGate(false, logic.One), true, false, logic.Zero},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			missing := tc.a.Missing(tc.b)
			if got := len(missing) == 1; got != tc.missing {
				t.Errorf("Missing = %v, want gate 0 listed: %t", missing, tc.missing)
			}
			u := &Result{}
			u.Merge(tc.a)
			u.Merge(tc.b)
			if u.Toggled[0] != tc.kept || u.ConstVal[0] != tc.constVal {
				t.Errorf("merged gate: toggled %t const %v, want %t %v", u.Toggled[0], u.ConstVal[0], tc.kept, tc.constVal)
			}
			if u.Paths != 2 || u.Cycles != 20 || u.Merges != 4 {
				t.Errorf("counters paths=%d cycles=%d merges=%d, want sums 2/20/4", u.Paths, u.Cycles, u.Merges)
			}
		})
	}
}

func TestMergeDomains(t *testing.T) {
	bits := []netlist.GateID{1, 2}
	a := oneGate(false, logic.Zero)
	a.BusDomains = []BusDomain{
		{Name: "r4", Bits: bits, Words: []logic.Word{logic.KnownWord(1)}},
		{Name: "r5", Bits: bits, Words: []logic.Word{logic.KnownWord(2)}},
	}
	b := oneGate(false, logic.Zero)
	b.BusDomains = []BusDomain{
		{Name: "r4", Bits: bits, Exceeded: true},
		{Name: "r5", Bits: bits, Words: []logic.Word{logic.KnownWord(2), logic.KnownWord(3)}},
		{Name: "r6", Bits: bits, Words: []logic.Word{logic.KnownWord(4)}},
	}
	u := &Result{}
	u.Merge(a)
	u.Merge(b)
	want := []BusDomain{
		{Name: "r4", Bits: bits, Exceeded: true},
		{Name: "r5", Bits: bits, Words: []logic.Word{logic.KnownWord(2), logic.KnownWord(3)}},
		{Name: "r6", Bits: bits, Words: []logic.Word{logic.KnownWord(4)}},
	}
	if !slices.EqualFunc(u.BusDomains, want, func(x, y BusDomain) bool {
		return x.Name == y.Name && x.Exceeded == y.Exceeded && slices.Equal(x.Words, y.Words)
	}) {
		t.Fatalf("merged domains %+v, want %+v", u.BusDomains, want)
	}
	// The union owns its domains: growing it leaves the inputs alone.
	u.Merge(&Result{Toggled: []bool{false}, ConstVal: []logic.V{logic.Zero},
		BusDomains: []BusDomain{{Name: "r6", Words: []logic.Word{logic.KnownWord(5)}}}})
	if a.BusDomains[0].Exceeded || len(a.BusDomains[1].Words) != 1 || len(b.BusDomains[2].Words) != 1 {
		t.Errorf("merging changed an input's domains: a=%+v b=%+v", a.BusDomains, b.BusDomains)
	}
}
