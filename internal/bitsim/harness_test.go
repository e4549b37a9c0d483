package bitsim_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"bespoke/internal/bench"
	"bespoke/internal/bitsim"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
)

// laneSeeds spreads distinct seeds across the lane word (low, middle and
// high bit positions) so plane bugs outside lane 0 can't hide.
var laneSeeds = map[int]uint64{0: 1, 17: 0xBEEF, 42: 7, 63: 0xFEED_F00D}

// TestHarnessLaneExtractionOracle is the catalog-level acceptance oracle:
// for every benchmark, a batch with several seeded lanes must reproduce
// the scalar engine's run bit-exactly per lane — output stream, halt
// cycle, and mid-run flip-flop state.
func TestHarnessLaneExtractionOracle(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		benches = benches[:3]
	}
	const probeCycle = 2000
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := b.Prog()
			if err != nil {
				t.Fatal(err)
			}

			c := cpu.Build()
			h, err := bitsim.NewHarness(c, prog, bitsim.Lanes)
			if err != nil {
				t.Fatal(err)
			}
			// Every lane gets a workload (unstimulated lanes would poison
			// or time out — benchmarks expect their RAM preload); only the
			// laneSeeds lanes are cross-checked against full scalar runs.
			ws := make([]*core.Workload, bitsim.Lanes)
			for l := range ws {
				ws[l] = b.Workload(uint64(1000 + l))
			}
			for l, seed := range laneSeeds {
				ws[l] = b.Workload(seed)
			}
			probes := map[int][]logic.V{}
			hook := func(h *bitsim.Harness) {
				if h.Cycles() == probeCycle {
					for l := range laneSeeds {
						probes[l] = h.DffSnapshotLane(l)
					}
				}
			}
			if err := h.Run(context.Background(), ws, hook); err != nil {
				t.Fatal(err)
			}

			for l, seed := range laneSeeds {
				var scalarProbe []logic.V
				sc := cpu.Build()
				shook := func(sh *cpu.Harness) {
					if sh.Cycles == probeCycle {
						scalarProbe = sh.Sim.DffSnapshot()
					}
				}
				tr, err := core.RunWorkloadHooked(context.Background(), sc, prog, b.Workload(seed), shook)
				if err != nil {
					t.Fatalf("lane %d seed %#x: scalar run: %v", l, seed, err)
				}
				lane := h.Lane[l]
				if lane.Status != bitsim.LaneHalted {
					t.Fatalf("lane %d seed %#x: %s (%s), scalar halted", l, seed, lane.Status, lane.Detail)
				}
				if lane.Cycles != tr.Cycles {
					t.Errorf("lane %d seed %#x: halt cycle %d, scalar %d", l, seed, lane.Cycles, tr.Cycles)
				}
				if d := diffWords(tr.Out, lane.Out); d != "" {
					t.Errorf("lane %d seed %#x: output stream: %s", l, seed, d)
				}
				if scalarProbe == nil {
					continue // run halted before the probe cycle
				}
				bp := probes[l]
				if len(bp) != len(scalarProbe) {
					t.Fatalf("lane %d: %d dffs vs scalar %d", l, len(bp), len(scalarProbe))
				}
				for i := range bp {
					if bp[i] != scalarProbe[i] {
						t.Errorf("lane %d seed %#x: dff %d at cycle %d: %v, scalar %v",
							l, seed, i, probeCycle, bp[i], scalarProbe[i])
						break
					}
				}
			}
		})
	}
}

func diffWords(want, got []uint16) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d words, scalar %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("word %d = %#04x, scalar %#04x", i, got[i], want[i])
		}
	}
	return ""
}

// TestRandomCosim smoke-checks the batched random cosim driver on a
// couple of benchmarks: every seeded lane must match its own ISA golden.
func TestRandomCosim(t *testing.T) {
	names := []string{"mult", "binSearch"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("no benchmark %q", name)
		}
		c := cpu.Build()
		n := 70 // exercises a full batch plus a partial one
		if testing.Short() {
			n = 6
		}
		rep, err := bitsim.RandomCosim(context.Background(), b, c, n, 42, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Mismatches) != 0 {
			t.Fatalf("%s: %d mismatches, first: seed %#x: %s",
				name, len(rep.Mismatches), rep.Mismatches[0].Seed, rep.Mismatches[0].Detail)
		}
		if rep.Seeds != n || rep.Cycles == 0 {
			t.Fatalf("%s: implausible report %+v", name, rep)
		}
	}
}

// TestHarnessCancellation runs a batch with an already-expiring context
// under load; Run must return promptly with a context error and no
// partial lane may be misreported as halted.
func TestHarnessCancellation(t *testing.T) {
	b := bench.ByName("mult")
	prog, err := b.Prog()
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.Build()
	h, err := bitsim.NewHarness(c, prog, bitsim.Lanes)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*core.Workload, bitsim.Lanes)
	for l := range ws {
		ws[l] = b.Workload(uint64(l + 1))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.Run(ctx, ws, nil); err == nil {
		t.Fatal("expected a context error")
	}
	for l := range h.Lane {
		if h.Lane[l].Status == bitsim.LaneHalted {
			t.Fatalf("lane %d reported halted after aborted run", l)
		}
	}
}

// TestHarnessRejectsBadPreload checks that a lane whose workload preloads
// outside data RAM aborts the batch with the workload's *PreloadError
// instead of an index panic in the lane-aware RAM.
func TestHarnessRejectsBadPreload(t *testing.T) {
	b := bench.ByName("mult")
	prog, err := b.Prog()
	if err != nil {
		t.Fatal(err)
	}
	h, err := bitsim.NewHarness(cpu.Build(), prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	ws := []*core.Workload{b.Workload(1), {RAM: map[uint16]uint16{0x0010: 1}}}
	var pe *core.PreloadError
	if err := h.Run(context.Background(), ws, nil); !errors.As(err, &pe) || pe.Addr != 0x0010 {
		t.Fatalf("Run error %v, want a *core.PreloadError at 0x0010", err)
	}
}
