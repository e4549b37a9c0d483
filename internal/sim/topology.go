package sim

import (
	"fmt"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// Ports is the structural half of a behavioral block: the nets it reads
// and the Input-kind gates it drives. Compile needs nothing else, so the
// scalar Block and the bit-parallel engine's block both satisfy it.
type Ports interface {
	Inputs() []netlist.GateID
	Outputs() []netlist.GateID
}

// Topology is the compiled, immutable structure of a netlist plus its
// blocks: everything the event-driven kernel reads but never writes.
// Both gate simulators embed it by value, so their hot loops load these
// fields directly; only the value domain, gate evaluation and the
// per-instance queue state differ between them.
type Topology struct {
	// BlockSubIdx/BlockSubDat are the CSR form of the net -> subscribed
	// blocks relation: blocks listening on net g are
	// BlockSubDat[BlockSubIdx[g]:BlockSubIdx[g+1]].
	BlockSubIdx []int32
	BlockSubDat []int32

	// Levels is each gate's topological level over the combinational
	// graph augmented with block read paths; MaxLevel is the deepest.
	Levels   []int32
	MaxLevel int32

	// FanIdx/FanDat are the CSR form of combinational fanout: the
	// non-sequential readers of net g are FanDat[FanIdx[g]:FanIdx[g+1]].
	// DFF D-pins are filtered out (they are sampled at the clock edge,
	// never propagated during settle). Each entry carries the reader's
	// level so the enqueue path avoids a second random load.
	FanIdx []int32
	FanDat []Fanout

	// Ops packs each gate's operand pins and kind into one 16-byte record
	// so evaluation touches a single cache line per gate. Unused pins
	// point at gate 0, whose value no kind with fewer inputs reads.
	Ops []Op

	// BucketOff gives each level a fixed segment of the event queue,
	// sized to the number of combinational gates at that level (each
	// gate queues at most once), so level l's segment starts at
	// BucketOff[l]. Sched is the queue with every combinational gate
	// pending, in gate order within each level, and Comb marks its
	// members: Reset copies both instead of scheduling gate by gate.
	BucketOff []int32
	Sched     []netlist.GateID
	Comb      []bool

	// BlockAtLvl lists the blocks to evaluate once a level has settled
	// (each after its highest input level); MinBlockLvl is the lowest
	// level holding any block.
	BlockAtLvl  [][]int32
	MinBlockLvl int32

	// DffGates lists the flip-flops in netlist order, with each one's D
	// input net and reset value at the same index.
	DffGates []netlist.GateID
	DffD     []int32
	DffReset []logic.V

	// Consts lists the constant gates, which Reset sets directly.
	Consts []netlist.GateID
}

// Fanout is one combinational fanout edge: the reading gate plus its
// topological level.
type Fanout struct {
	ID  netlist.GateID
	Lvl int32
}

// Op is a gate's evaluation record: three operand nets and its kind.
type Op struct {
	In0, In1, In2, Kind int32
}

// Compile builds the topology of n with the given blocks. It levelizes
// the combinational network including block read paths and returns an
// error on a combinational cycle or a block driving a non-input gate.
func Compile[B Ports](n *netlist.Netlist, blocks []B) (Topology, error) {
	nG := len(n.Gates)
	t := Topology{DffGates: n.DffIDs(), Comb: make([]bool, nG)}
	t.DffD = make([]int32, len(t.DffGates))
	t.DffReset = make([]logic.V, len(t.DffGates))
	for i, id := range t.DffGates {
		t.DffD[i] = int32(n.Gates[id].In[0])
		t.DffReset[i] = n.Gates[id].Reset
	}

	// CSR block subscriptions.
	t.BlockSubIdx = make([]int32, nG+1)
	for _, b := range blocks {
		for _, in := range b.Inputs() {
			t.BlockSubIdx[in+1]++
		}
	}
	for i := 0; i < nG; i++ {
		t.BlockSubIdx[i+1] += t.BlockSubIdx[i]
	}
	t.BlockSubDat = make([]int32, t.BlockSubIdx[nG])
	fill := make([]int32, nG)
	blockOut := make([]int32, nG) // block index+1 driving this input gate
	for bi, b := range blocks {
		for _, in := range b.Inputs() {
			t.BlockSubDat[t.BlockSubIdx[in]+fill[in]] = int32(bi)
			fill[in]++
		}
		for _, out := range b.Outputs() {
			if n.Gates[out].Kind != netlist.Input {
				return Topology{}, fmt.Errorf("sim: block %d output gate %d is %s, want input", bi, out, n.Gates[out].Kind)
			}
			blockOut[out] = int32(bi) + 1
		}
	}

	// CSR combinational fanout (sequential readers filtered out) and the
	// flat evaluation operands.
	t.FanIdx = make([]int32, nG+1)
	t.Ops = make([]Op, nG)
	for i := range n.Gates {
		g := &n.Gates[i]
		op := &t.Ops[i]
		op.Kind = int32(g.Kind)
		ni := g.Kind.NumInputs()
		for p, pin := range [...]*int32{&op.In0, &op.In1, &op.In2} {
			if p < ni && g.In[p] != netlist.None {
				*pin = int32(g.In[p])
			}
		}
		switch {
		case g.Kind == netlist.Const0 || g.Kind == netlist.Const1:
			t.Consts = append(t.Consts, netlist.GateID(i))
		case g.Kind.IsSeq():
			continue
		}
		t.Comb[i] = ni > 0
		for p := 0; p < ni; p++ {
			if in := g.In[p]; in != netlist.None {
				t.FanIdx[in+1]++
			}
		}
	}
	for i := 0; i < nG; i++ {
		t.FanIdx[i+1] += t.FanIdx[i]
	}
	t.FanDat = make([]Fanout, t.FanIdx[nG])
	clear(fill)
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Kind.IsSeq() {
			continue
		}
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			if in := g.In[p]; in != netlist.None {
				t.FanDat[t.FanIdx[in]+fill[in]].ID = netlist.GateID(i)
				fill[in]++
			}
		}
	}

	var err error
	if t.Levels, t.MaxLevel, err = levelize(n, blockOut, blocks); err != nil {
		return Topology{}, err
	}
	for i := range t.FanDat {
		t.FanDat[i].Lvl = t.Levels[t.FanDat[i].ID]
	}

	// Per-level queue segments sized by combinational population, and
	// the full schedule laid out in them.
	nLvl := int(t.MaxLevel) + 2
	t.BucketOff = make([]int32, nLvl+1)
	for i, c := range t.Comb {
		if c {
			t.BucketOff[t.Levels[i]+1]++
		}
	}
	for l := 0; l < nLvl; l++ {
		t.BucketOff[l+1] += t.BucketOff[l]
	}
	t.Sched = make([]netlist.GateID, t.BucketOff[nLvl])
	next := append([]int32(nil), t.BucketOff[:nLvl]...)
	for i, c := range t.Comb {
		if c {
			l := t.Levels[i]
			t.Sched[next[l]] = netlist.GateID(i)
			next[l]++
		}
	}

	t.BlockAtLvl = make([][]int32, nLvl)
	t.MinBlockLvl = int32(nLvl)
	for bi, b := range blocks {
		lvl := int32(0)
		for _, in := range b.Inputs() {
			if t.Levels[in] >= lvl {
				lvl = t.Levels[in]
			}
		}
		// Evaluate the block after its highest input level settles.
		t.BlockAtLvl[lvl] = append(t.BlockAtLvl[lvl], int32(bi))
		if lvl < t.MinBlockLvl {
			t.MinBlockLvl = lvl
		}
	}
	return t, nil
}

// levelize assigns topological levels over the combinational graph
// augmented with block input->output edges; blockOut maps a
// block-driven input gate to its block index+1.
func levelize[B Ports](n *netlist.Netlist, blockOut []int32, blocks []B) ([]int32, int32, error) {
	nG := len(n.Gates)
	isSource := func(id netlist.GateID) bool {
		g := &n.Gates[id]
		if g.Kind.IsSeq() {
			return true
		}
		if g.Kind == netlist.Input {
			return blockOut[id] == 0
		}
		return g.Kind.NumInputs() == 0
	}
	// predList returns the combinational predecessors of id.
	predList := func(id netlist.GateID) []netlist.GateID {
		g := &n.Gates[id]
		if g.Kind == netlist.Input {
			if bi := blockOut[id]; bi != 0 {
				return blocks[bi-1].Inputs()
			}
			return nil
		}
		return g.In[:g.Kind.NumInputs()]
	}
	lv := make([]int32, nG)
	var maxLevel int32
	state := make([]uint8, nG)
	type frame struct {
		id   netlist.GateID
		pred []netlist.GateID
		i    int
	}
	var stack []frame
	for root := 0; root < nG; root++ {
		if state[root] != 0 {
			continue
		}
		stack = append(stack[:0], frame{id: netlist.GateID(root)})
		state[root] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if isSource(f.id) {
				lv[f.id] = 0
				state[f.id] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			if f.pred == nil {
				f.pred = predList(f.id)
			}
			if f.i < len(f.pred) {
				p := f.pred[f.i]
				f.i++
				switch state[p] {
				case 0:
					state[p] = 1
					stack = append(stack, frame{id: p})
				case 1:
					return nil, 0, fmt.Errorf("sim: combinational cycle through gate %d (%s %q)", p, n.Gates[p].Kind, n.Gates[p].Name)
				}
				continue
			}
			var m int32 = -1
			for _, p := range f.pred {
				// DFF predecessors are level-0 sources and impose no
				// ordering; block-driven inputs carry their real level.
				if state[p] == 2 && lv[p] > m && !n.Gates[p].Kind.IsSeq() {
					m = lv[p]
				}
			}
			lv[f.id] = m + 1
			if lv[f.id] > maxLevel {
				maxLevel = lv[f.id]
			}
			state[f.id] = 2
			stack = stack[:len(stack)-1]
		}
	}
	return lv, maxLevel, nil
}
