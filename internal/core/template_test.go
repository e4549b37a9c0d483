package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/cells"
	"bespoke/internal/cpu"
	"bespoke/internal/layout"
	"bespoke/internal/netlist"
	"bespoke/internal/power"
	"bespoke/internal/sta"
)

// freshBaseline is the baseline signoff without any memo, as the flow
// computed it before the template existed: elaborate, place, derive the
// clock (unless clockPs is set), time, run the workload and take power.
func freshBaseline(t *testing.T, p *asm.Program, w *Workload, lib *cells.Library, clockPs float64) Metrics {
	t.Helper()
	c := cpu.Build()
	c.LoadProgram(p.Bytes, p.Origin)
	place := layout.Place(c.N, lib)
	if clockPs == 0 {
		crit, err := sta.Analyze(c.N, lib, place, 0, blockPaths(c))
		if err != nil {
			t.Fatal(err)
		}
		clockPs = crit.CriticalPs * clockMargin
	}
	timing, err := sta.Analyze(c.N, lib, place, clockPs, blockPaths(c))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunWorkload(context.Background(), c, p, w)
	if err != nil {
		t.Fatal(err)
	}
	st := c.N.Stats()
	return Metrics{
		Gates: st.Gates, Dffs: st.Dffs, Timing: timing,
		Power: power.Analyze(c.N, lib, place, tr.Toggles, tr.Cycles, clockHz, lib.VNominal),
	}
}

// slowWireLib returns a library that differs from the default only in
// doubled wire delay (scaled by k, so tests can make distinct keys).
func slowWireLib(k float64) *cells.Library {
	lib := cells.TSMC65()
	lib.WireDelayPerUm *= 2 * k
	return lib
}

func TestTemplatePerLibrary(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	def, err := templateFor(cells.TSMC65())
	if err != nil {
		t.Fatal(err)
	}
	lib := slowWireLib(1)
	slow, err := templateFor(lib)
	if err != nil {
		t.Fatal(err)
	}
	if slow == def || slow.clockPs <= def.clockPs {
		t.Fatalf("doubled wire delay shares or undercuts the default template: clock %.1f vs %.1f ps",
			slow.clockPs, def.clockPs)
	}
	// The key is the library value: an equal copy shares the template.
	if again, _ := templateFor(slowWireLib(1)); again != slow {
		t.Error("an equal library value got a second template")
	}

	res, err := Tailor(context.Background(), p, addWorkload(), Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	if want := freshBaseline(t, p, addWorkload(), lib, 0); !reflect.DeepEqual(res.Baseline, want) {
		t.Errorf("custom-library baseline differs from an unmemoized signoff:\n got %+v\nwant %+v", res.Baseline, want)
	}
	if res.Bespoke.Timing.ClockPs != slow.clockPs {
		t.Errorf("bespoke clock %.3f ps, want the custom template's %.3f ps", res.Bespoke.Timing.ClockPs, slow.clockPs)
	}
}

func TestTemplateClockOverride(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	const clockPs = 20_000
	res, err := Tailor(context.Background(), p, addWorkload(), Options{ClockPs: clockPs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Timing.ClockPs != clockPs || res.Bespoke.Timing.ClockPs != clockPs {
		t.Fatalf("clock override not applied: baseline %.1f, bespoke %.1f ps",
			res.Baseline.Timing.ClockPs, res.Bespoke.Timing.ClockPs)
	}
	if want := freshBaseline(t, p, addWorkload(), cells.TSMC65(), clockPs); !reflect.DeepEqual(res.Baseline, want) {
		t.Errorf("overridden-clock baseline differs from an unmemoized signoff:\n got %+v\nwant %+v", res.Baseline, want)
	}
	// The override times a copy; the shared template keeps its own clock.
	tmpl, err := templateFor(cells.TSMC65())
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.timing.ClockPs != tmpl.clockPs {
		t.Errorf("template timing at %.1f ps after an override, want its derived %.1f ps", tmpl.timing.ClockPs, tmpl.clockPs)
	}
}

func TestTemplateCoresArePrivate(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	first, err := Tailor(context.Background(), p, addWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wreck everything the caller was handed.
	for i := range first.BaselineCore.N.Gates {
		first.BaselineCore.N.Gates[i].Kind = netlist.Const0
	}
	clear(first.BaselineCore.ROM.Words())

	second, err := Tailor(context.Background(), p, addWorkload(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.BaselineCore == first.BaselineCore || second.BaselineCore.N == first.BaselineCore.N ||
		&second.BaselineCore.N.Gates[0] == &first.BaselineCore.N.Gates[0] {
		t.Fatal("two flows share a baseline core")
	}
	if netlist.Hash(second.BaselineCore.N) != netlist.Hash(cpu.Build().N) {
		t.Error("a caller's edit to its baseline core reached the next flow's")
	}
	if want := freshBaseline(t, p, addWorkload(), cells.TSMC65(), 0); !reflect.DeepEqual(second.Baseline, want) {
		t.Errorf("baseline after a caller's edit differs from an unmemoized signoff:\n got %+v\nwant %+v", second.Baseline, want)
	}
}

// TestTemplateConcurrentFirstUse runs under -short on purpose: CI's race
// job covers the memo's first fill from several goroutines.
func TestTemplateConcurrentFirstUse(t *testing.T) {
	p := asm.MustAssemble(simpleAdd)
	// A library no other test uses, so these calls are its first use.
	lib := slowWireLib(1.5)
	const workers = 4
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < workers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i], errs[i] = Tailor(context.Background(), p, addWorkload(), Options{Lib: lib})
		}(i)
	}
	start.Done()
	done.Wait()
	want := freshBaseline(t, p, addWorkload(), lib, 0)
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("flow %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Baseline, want) {
			t.Errorf("flow %d baseline differs from an unmemoized signoff:\n got %+v\nwant %+v", i, results[i].Baseline, want)
		}
		if i > 0 && results[i].BaselineCore.N == results[0].BaselineCore.N {
			t.Errorf("flows 0 and %d share a baseline netlist", i)
		}
	}
}
