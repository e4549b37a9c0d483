// The analyzers. Each one scans a single class of structural defect over
// the shared read-only design view and returns unordered findings; Run
// sorts and concatenates them. All analyzers must tolerate malformed
// netlists (out-of-range pins, unknown kinds) without panicking — range
// defects are reported by floating-input and cell-lib, and the shared
// reader table already excludes invalid edges.

package lint

import (
	"fmt"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// isComb reports whether gate id is combinational logic (has inputs and
// is not a flip-flop); only such gates can participate in a
// combinational cycle or constant folding.
func isComb(k netlist.Kind) bool {
	return int(k) < netlist.NumKinds && k.NumInputs() > 0 && !k.IsSeq()
}

// isPseudo reports whether kind k occupies no silicon (constants and
// input ports).
func isPseudo(k netlist.Kind) bool {
	return k == netlist.Input || k == netlist.Const0 || k == netlist.Const1
}

// lintCombLoops finds combinational cycles: strongly connected
// components of size > 1 (or with a self-edge) in the gate graph
// restricted to combinational cells — flip-flops legitimately close
// sequential loops and are excluded. One finding is emitted per cycle,
// anchored at its lowest-numbered gate, so a single defect does not
// explode into per-member findings. Tarjan's algorithm, iterative to
// survive the deep logic chains of real netlists.
func lintCombLoops(d *design) []Finding {
	n := d.n
	const unvisited = -1
	index := make([]int32, len(n.Gates))
	low := make([]int32, len(n.Gates))
	onStack := make([]bool, len(n.Gates))
	for i := range index {
		index[i] = unvisited
	}
	var (
		findings []Finding
		counter  int32
		sccStack []netlist.GateID
		scc      []netlist.GateID // the component being popped, reused
	)
	// edges returns the combinational fan-in of gate v (the cycle, if
	// any, is closed through input edges between comb gates).
	edges := func(v netlist.GateID) [3]netlist.GateID {
		var out [3]netlist.GateID
		out = [3]netlist.GateID{netlist.None, netlist.None, netlist.None}
		g := &n.Gates[v]
		if !isComb(g.Kind) {
			return out
		}
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			if in := g.In[p]; in != netlist.None && d.valid(in) && isComb(n.Gates[in].Kind) {
				out[p] = in
			}
		}
		return out
	}
	type frame struct {
		v   netlist.GateID
		pin int
		e   [3]netlist.GateID // edges(v)
	}
	var stack []frame
	for root := range n.Gates {
		if index[root] != unvisited || !isComb(n.Gates[root].Kind) {
			continue
		}
		stack = append(stack[:0], frame{netlist.GateID(root), 0, edges(netlist.GateID(root))})
		index[root] = counter
		low[root] = counter
		counter++
		sccStack = append(sccStack, netlist.GateID(root))
		onStack[root] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.pin < len(f.e) {
				w := f.e[f.pin]
				f.pin++
				if w == netlist.None {
					continue
				}
				switch {
				case index[w] == unvisited:
					stack = append(stack, frame{w, 0, edges(w)})
					index[w] = counter
					low[w] = counter
					counter++
					sccStack = append(sccStack, w)
					onStack[w] = true
				case onStack[w]:
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			v := f.v
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				if p := &stack[len(stack)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v is an SCC root: pop its component.
			scc = scc[:0]
			for {
				w := sccStack[len(sccStack)-1]
				sccStack = sccStack[:len(sccStack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			selfLoop := false
			if len(scc) == 1 {
				for _, in := range edges(scc[0]) {
					if in == scc[0] {
						selfLoop = true
					}
				}
			}
			if len(scc) == 1 && !selfLoop {
				continue
			}
			min, next := scc[0], netlist.None
			for _, w := range scc {
				if w < min {
					min = w
				}
			}
			for _, w := range scc {
				if w != min && (next == netlist.None || w < next) {
					next = w
				}
			}
			findings = append(findings, Finding{
				Analyzer: "comb-loop",
				Severity: Error,
				Gate:     min,
				Net:      next,
				Detail: fmt.Sprintf("combinational cycle through %d gate(s) starting at %s %q",
					len(scc), n.Gates[min].Kind, n.Gates[min].Name),
			})
		}
	}
	return findings
}

// lintMultiDriven finds nets with more than one driver. In this netlist
// representation every gate drives exactly one net, so structural
// multi-drive shows up at the boundaries: a net registered in the
// primary-input table more than once, a net registered as externally
// driven whose gate is also real logic (two drivers: the testbench or
// memory macro, and the gate), and an output port name declared twice.
func lintMultiDriven(d *design) []Finding {
	n := d.n
	var findings []Finding
	seen := make(map[netlist.GateID]int, len(n.Inputs))
	for _, id := range n.Inputs {
		seen[id]++
	}
	for _, id := range n.Inputs {
		if !d.valid(id) {
			continue // floating-input reports the dangling reference
		}
		c := seen[id]
		if c > 1 {
			findings = append(findings, Finding{
				Analyzer: "multi-driven",
				Severity: Error,
				Gate:     id,
				Net:      netlist.None,
				Detail:   fmt.Sprintf("net registered as a primary input %d times", c),
			})
			seen[id] = 1 // report once
			continue
		}
		if c == 1 && n.Gates[id].Kind != netlist.Input {
			findings = append(findings, Finding{
				Analyzer: "multi-driven",
				Severity: Error,
				Gate:     id,
				Net:      netlist.None,
				Detail: fmt.Sprintf("net driven both externally (input table) and by a %s gate",
					n.Gates[id].Kind),
			})
		}
	}
	ports := make(map[string]netlist.GateID, len(n.Outputs))
	for _, o := range n.Outputs {
		if prev, dup := ports[o.Name]; dup && prev != o.Gate {
			findings = append(findings, Finding{
				Analyzer: "multi-driven",
				Severity: Error,
				Gate:     o.Gate,
				Net:      prev,
				Detail:   fmt.Sprintf("output port %q driven by two different nets", o.Name),
			})
			continue
		}
		ports[o.Name] = o.Gate
	}
	return findings
}

// lintFloatingInputs finds required gate input pins that are unconnected
// or reference nonexistent gates, plus output ports and input-table
// entries that dangle. These are hard structural errors: simulation
// would read garbage.
func lintFloatingInputs(d *design) []Finding {
	n := d.n
	var findings []Finding
	for i := range n.Gates {
		g := &n.Gates[i]
		if int(g.Kind) >= netlist.NumKinds {
			continue // cell-lib reports the unknown kind
		}
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			in := g.In[p]
			switch {
			case in == netlist.None:
				findings = append(findings, Finding{
					Analyzer: "floating-input",
					Severity: Error,
					Gate:     netlist.GateID(i),
					Net:      netlist.None,
					Detail:   fmt.Sprintf("%s input pin %d is unconnected", g.Kind, p),
				})
			case !d.valid(in):
				findings = append(findings, Finding{
					Analyzer: "floating-input",
					Severity: Error,
					Gate:     netlist.GateID(i),
					Net:      netlist.None,
					Detail:   fmt.Sprintf("%s input pin %d references nonexistent gate %d", g.Kind, p, in),
				})
			}
		}
	}
	for _, id := range n.Inputs {
		if !d.valid(id) {
			findings = append(findings, Finding{
				Analyzer: "floating-input",
				Severity: Error,
				Gate:     netlist.None,
				Net:      netlist.None,
				Detail:   fmt.Sprintf("input table references nonexistent gate %d", id),
			})
		}
	}
	for _, o := range n.Outputs {
		if !d.valid(o.Gate) {
			findings = append(findings, Finding{
				Analyzer: "floating-input",
				Severity: Error,
				Gate:     netlist.None,
				Net:      netlist.None,
				Detail:   fmt.Sprintf("output port %q references nonexistent gate %d", o.Name, o.Gate),
			})
		}
	}
	return findings
}

// lintDeadLogic finds real cells with no structural path forward to any
// primary output, flip-flop or kept (externally observed) net. Flip-
// flops count as sinks: logic feeding state is reachable by fault
// injection and architectural observation even when that state never
// propagates to a port (the base core's watchdog counter is such an
// island). Gates outside all three cones burn area and power without
// any observable effect; a correct elaboration or re-synthesis leaves
// none.
func lintDeadLogic(d *design) []Finding {
	n := d.n
	live := make([]bool, len(n.Gates))
	var stack []netlist.GateID
	push := func(id netlist.GateID) {
		if d.valid(id) && !live[id] {
			live[id] = true
			stack = append(stack, id)
		}
	}
	for i := range n.Gates {
		if d.output[i] || d.keepAlive[i] || n.Gates[i].Kind.IsSeq() {
			push(netlist.GateID(i))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := &n.Gates[id]
		if int(g.Kind) >= netlist.NumKinds {
			continue
		}
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			if in := g.In[p]; in != netlist.None {
				push(in)
			}
		}
	}
	var findings []Finding
	for i := range n.Gates {
		g := &n.Gates[i]
		if isPseudo(g.Kind) || int(g.Kind) >= netlist.NumKinds || live[i] {
			continue
		}
		findings = append(findings, Finding{
			Analyzer: "dead-logic",
			Severity: Error,
			Gate:     netlist.GateID(i),
			Net:      netlist.None,
			Detail: fmt.Sprintf("%s %q has no structural path to any primary output or kept net",
				g.Kind, g.Name),
		})
	}
	return findings
}

// lintUnreadOutputs finds real cells whose driven net has no readers at
// all: no gate fanout, no output port, no kept net. A weaker, purely
// local version of dead-logic (every unread gate is also dead, but a
// dead region can be fully internally connected), graded as a warning.
func lintUnreadOutputs(d *design) []Finding {
	n := d.n
	var findings []Finding
	for i := range n.Gates {
		g := &n.Gates[i]
		if isPseudo(g.Kind) || int(g.Kind) >= netlist.NumKinds {
			continue
		}
		if d.read[i] || d.output[i] || d.keepAlive[i] {
			continue
		}
		findings = append(findings, Finding{
			Analyzer: "unread-output",
			Severity: Warning,
			Gate:     netlist.GateID(i),
			Net:      netlist.None,
			Detail:   fmt.Sprintf("%s %q drives a net that is never read", g.Kind, g.Name),
		})
	}
	return findings
}

// lintCellLib checks every gate against the cell library and the kind
// catalogue: unknown kinds, connected pins beyond the cell's arity,
// kinds the library does not characterize, invalid reset encodings, and
// reset values on combinational cells.
func lintCellLib(d *design) []Finding {
	n := d.n
	var findings []Finding
	for i := range n.Gates {
		g := &n.Gates[i]
		if int(g.Kind) >= netlist.NumKinds {
			findings = append(findings, Finding{
				Analyzer: "cell-lib",
				Severity: Error,
				Gate:     netlist.GateID(i),
				Net:      netlist.None,
				Detail:   fmt.Sprintf("unknown cell kind %d", uint8(g.Kind)),
			})
			continue
		}
		ni := g.Kind.NumInputs()
		for p := ni; p < len(g.In); p++ {
			if g.In[p] != netlist.None {
				findings = append(findings, Finding{
					Analyzer: "cell-lib",
					Severity: Error,
					Gate:     netlist.GateID(i),
					Net:      g.In[p],
					Detail:   fmt.Sprintf("arity mismatch: %s cell has pin %d connected (takes %d input(s))", g.Kind, p, ni),
				})
			}
		}
		if !isPseudo(g.Kind) && d.lib.ByKind[g.Kind].Area <= 0 {
			findings = append(findings, Finding{
				Analyzer: "cell-lib",
				Severity: Error,
				Gate:     netlist.GateID(i),
				Net:      netlist.None,
				Detail:   fmt.Sprintf("cell library does not characterize kind %s", g.Kind),
			})
		}
		if g.Reset > logic.X {
			findings = append(findings, Finding{
				Analyzer: "cell-lib",
				Severity: Error,
				Gate:     netlist.GateID(i),
				Net:      netlist.None,
				Detail:   fmt.Sprintf("invalid reset encoding %d", uint8(g.Reset)),
			})
		} else if !g.Kind.IsSeq() && !isPseudo(g.Kind) && g.Reset != logic.Zero {
			// Pseudo cells are exempt: cut and re-synthesis retire
			// flip-flops by rewriting them to constants and may leave the
			// stale reset field behind; no silicon reads it.
			findings = append(findings, Finding{
				Analyzer: "cell-lib",
				Severity: Warning,
				Gate:     netlist.GateID(i),
				Net:      netlist.None,
				Detail:   fmt.Sprintf("reset value %s on non-sequential %s cell", g.Reset, g.Kind),
			})
		}
	}
	return findings
}

// lintConstResidue finds combinational gates whose every connected input
// is a stitched constant: their output is statically determined, so
// re-synthesis should have folded them away. After a correct cut +
// re-synthesis none remain; residue indicates a broken or skipped fold
// (e.g. a corrupted stitch).
func lintConstResidue(d *design) []Finding {
	n := d.n
	var findings []Finding
	for i := range n.Gates {
		g := &n.Gates[i]
		if !isComb(g.Kind) {
			continue
		}
		ni := g.Kind.NumInputs()
		all := true
		var firstConst netlist.GateID = netlist.None
		for p := 0; p < ni; p++ {
			in := g.In[p]
			if in == netlist.None || !d.valid(in) {
				all = false
				break
			}
			k := n.Gates[in].Kind
			if k != netlist.Const0 && k != netlist.Const1 {
				all = false
				break
			}
			if firstConst == netlist.None {
				firstConst = in
			}
		}
		if !all {
			continue
		}
		findings = append(findings, Finding{
			Analyzer: "const-residue",
			Severity: Error,
			Gate:     netlist.GateID(i),
			Net:      firstConst,
			Detail: fmt.Sprintf("foldable residue: every input of %s %q is a constant",
				g.Kind, g.Name),
		})
	}
	return findings
}

// lintXSources audits for gates that can emit X even when every primary
// input is binary. In this three-valued algebra all combinational cells
// are X-preserving (binary in, binary out), so the structural X sources
// are flip-flops that reset to X: they inject unknowns into an otherwise
// binary design until first written.
func lintXSources(d *design) []Finding {
	n := d.n
	var findings []Finding
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Kind != netlist.Dff {
			continue
		}
		if g.Reset == logic.X {
			findings = append(findings, Finding{
				Analyzer: "x-source",
				Severity: Warning,
				Gate:     netlist.GateID(i),
				Net:      netlist.None,
				Detail:   fmt.Sprintf("flip-flop %q resets to X and can emit X from all-binary inputs", g.Name),
			})
		}
	}
	return findings
}
