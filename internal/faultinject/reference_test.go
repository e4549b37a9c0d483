package faultinject

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bespoke/internal/asm"
	"bespoke/internal/core"
	"bespoke/internal/cpu"
	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/parallel"
)

// The one-run-per-fault reference classifier. Every fault runs alone on
// a private scalar clone of the design through core.RunWorkloadHooked,
// with the scalar sim's fault hooks (ForceDff, InjectPulse,
// DffDSnapshotInto) or an in-place netlist rewrite. The backend-equality
// tests hold the bit-parallel campaign to its outcomes and details.

// referenceCampaign runs faults against golden reference g one at a
// time, each worker owning a clone of c, and summarizes the outcomes the
// way runCampaign does.
func referenceCampaign(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, g *Golden, faults []Fault, opts Options) (*Report, error) {
	start := time.Now()
	outcomes := make([]*Result, len(faults))
	perr := parallel.ForEachState(ctx, opts.Workers, len(faults),
		func(int) *cpu.Core { return c.Clone() },
		func(clone *cpu.Core, i int) error {
			res, err := injectOne(ctx, clone, prog, w, g, faults[i], opts)
			if err != nil {
				return err
			}
			outcomes[i] = &res
			return nil
		})
	rep, err := summarize(ctx, outcomes, perr)
	if err != nil {
		return nil, err
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// referenceSEU draws SEUCampaign's documented schedule: n (flip-flop,
// cycle) pairs from rng(opts.Seed), the site first, the cycle spread
// over the golden run. It then runs the schedule on the reference.
func referenceSEU(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, n int, opts Options) (*Report, error) {
	g, err := GoldenRun(ctx, c, prog, w)
	if err != nil {
		return nil, err
	}
	var dffs []netlist.GateID
	for i := range c.N.Gates {
		if c.N.Gates[i].Kind == netlist.Dff {
			dffs = append(dffs, netlist.GateID(i))
		}
	}
	r := rng(opts.Seed)
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = Fault{Gate: dffs[r.next()%uint64(len(dffs))], Transient: true, Cycle: r.next() % max(g.Cycles, 1)}
	}
	return referenceCampaign(ctx, c, prog, w, g, faults, opts)
}

// injectOne runs one faulty execution on the worker's private clone and
// classifies it. Fault-induced failures (hangs, X-poisoned state) become
// divergent outcomes; context errors abort the campaign.
func injectOne(ctx context.Context, c *cpu.Core, prog *asm.Program, w *core.Workload, g *Golden, f Fault, opts Options) (Result, error) {
	var hook func(h *cpu.Harness)
	latched := false
	switch {
	case f.Pulse:
		// Validate the site up front: the hook runs mid-simulation and
		// has no error path.
		if int(f.Gate) < 0 || int(f.Gate) >= len(c.N.Gates) {
			return Result{}, fmt.Errorf("faultinject: gate %d out of range", f.Gate)
		}
		if k := c.N.Gates[f.Gate].Kind; k.IsSeq() || k.NumInputs() == 0 {
			return Result{}, fmt.Errorf("faultinject: gate %d (%s) is not a combinational SET site", f.Gate, k)
		}
		var before, after []logic.V
		hook = func(h *cpu.Harness) {
			if h.Cycles != f.Cycle {
				return
			}
			// Settle the fault-free cycle, snapshot the D pins, strike,
			// and resettle: any D-pin difference means the glitch was
			// wide enough to be latched at the coming edge.
			h.Sim.Settle()
			before = h.Sim.DffDSnapshotInto(before)
			if _, err := h.Sim.InjectPulse(f.Gate); err != nil {
				return // unreachable: the site was validated above
			}
			h.Sim.Settle()
			after = h.Sim.DffDSnapshotInto(after)
			for i := range before {
				if before[i] != after[i] {
					latched = true
					break
				}
			}
		}
	case f.Transient:
		hook = func(h *cpu.Harness) {
			if h.Cycles != f.Cycle {
				return
			}
			flip := logic.One
			if h.Sim.Val[f.Gate] == logic.One {
				flip = logic.Zero
			}
			h.Sim.ForceDff(f.Gate, flip)
		}
	default:
		restore, err := stuckAt(c.N, f.Gate, f.StuckAt)
		if err != nil {
			return Result{}, err
		}
		defer restore()
	}
	max := opts.MaxCycles
	if max == 0 {
		max = 2*g.Cycles + 1024
	}
	bw := core.Workload{MaxCycles: max}
	if w != nil {
		bw.RAM, bw.P1, bw.IRQ = w.RAM, w.P1, w.IRQ
	}
	tr, err := core.RunWorkloadHooked(ctx, c, prog, &bw, hook)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, fmt.Errorf("faultinject: campaign aborted: %w", cerr)
		}
		var fe *core.FlowError
		detail := err.Error()
		if errors.As(err, &fe) {
			detail = fe.Err.Error()
		}
		return Result{Fault: f, Outcome: Hang, Detail: truncate(detail)}, nil
	}
	if d := diffOuts(g.Out, tr.Out); d != "" {
		return Result{Fault: f, Outcome: SDC, Detail: d}, nil
	}
	if tr.Cycles != g.Cycles {
		return Result{Fault: f, Outcome: SDC,
			Detail: fmt.Sprintf("halted at cycle %d, golden %d", tr.Cycles, g.Cycles)}, nil
	}
	if latched {
		return Result{Fault: f, Outcome: Latched,
			Detail: "corrupted flip-flop state at the strike edge, architecturally silent"}, nil
	}
	return Result{Fault: f, Outcome: Masked}, nil
}

// stuckAt ties gate g's output to v in place (the same transformation
// cut.Apply performs) and returns a closure restoring the original gate.
func stuckAt(n *netlist.Netlist, g netlist.GateID, v logic.V) (restore func(), err error) {
	if int(g) < 0 || int(g) >= len(n.Gates) {
		return nil, fmt.Errorf("faultinject: gate %d out of range", g)
	}
	saved := n.Gates[g]
	switch saved.Kind {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return nil, fmt.Errorf("faultinject: gate %d (%s) is not a fault site", g, saved.Kind)
	}
	k := netlist.Const0
	if v == logic.One {
		k = netlist.Const1
	}
	n.Gates[g].Kind = k
	n.Gates[g].In = [3]netlist.GateID{netlist.None, netlist.None, netlist.None}
	n.InvalidateDerived()
	return func() {
		n.Gates[g] = saved
		n.InvalidateDerived()
	}, nil
}
