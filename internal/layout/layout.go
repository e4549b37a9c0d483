// Package layout is the flow's stand-in for place and route: it places
// cells on a row grid, estimates per-net wirelength (half-perimeter of
// the net's bounding box), and derives die area. Wire capacitance feeds
// the power model and wire delay feeds static timing, so the physical
// shrink of a bespoke design (shorter wires, less load) is reflected in
// its reported power and slack, as in the paper's EDI-based flow.
package layout

import (
	"cmp"
	"math"
	"slices"

	"bespoke/internal/cells"
	"bespoke/internal/netlist"
)

// Result describes a placed design.
type Result struct {
	// CellAreaUm2 is the summed standard-cell area.
	CellAreaUm2 float64
	// AreaUm2 is the die area at the target utilization.
	AreaUm2 float64
	// Utilization is the placement density used.
	Utilization float64
	// WireLenUm[g] estimates the routed length of the net driven by
	// gate g (0 for unplaced pseudo-cells).
	WireLenUm []float64
	// TotalWireUm is the summed wirelength.
	TotalWireUm float64
	// X, Y hold each placed cell's coordinates in micrometres (zero for
	// pseudo-cells).
	X, Y []float64
}

// WireCapFF returns the routing capacitance of the net driven by g.
func (r *Result) WireCapFF(lib *cells.Library, g netlist.GateID) float64 {
	return r.WireLenUm[g] * lib.WireCapPerUm
}

// WireDelayPs returns the routing delay of the net driven by g.
func (r *Result) WireDelayPs(lib *cells.Library, g netlist.GateID) float64 {
	return r.WireLenUm[g] * lib.WireDelayPerUm
}

const defaultUtilization = 0.7

// Place performs the toy placement. It is deterministic: an initial
// topological ordering packs connected logic together, then a few
// centroid-refinement passes shorten nets. Positions live in the result's
// X/Y slices throughout, indexed by gate ID; n's lazily built Levels and
// Fanout tables are computed (and cached on n) if they are not already.
func Place(n *netlist.Netlist, lib *cells.Library) *Result {
	r := &Result{
		Utilization: defaultUtilization,
		WireLenUm:   make([]float64, len(n.Gates)),
		X:           make([]float64, len(n.Gates)),
		Y:           make([]float64, len(n.Gates)),
	}

	// Real cells to place.
	var order []netlist.GateID
	placed := make([]bool, len(n.Gates))
	for i := range n.Gates {
		k := n.Gates[i].Kind
		switch k {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		r.CellAreaUm2 += lib.ByKind[k].Area
		placed[i] = true
		order = append(order, netlist.GateID(i))
	}
	if len(order) == 0 {
		return r
	}
	r.AreaUm2 = r.CellAreaUm2 / r.Utilization
	side := math.Sqrt(r.AreaUm2)
	cols := int(math.Ceil(math.Sqrt(float64(len(order)))))
	pitch := side / float64(cols)

	// Initial order: topological (levelized) order keeps fanin cones
	// adjacent; DFFs and sources first.
	lv, _, err := n.Levels()
	if err != nil {
		lv = make([]int32, len(n.Gates))
	}
	slices.SortStableFunc(order, func(a, b netlist.GateID) int { return cmp.Compare(lv[a], lv[b]) })

	assign := func() {
		for i, id := range order {
			r.X[id] = (float64(i%cols) + 0.5) * pitch
			r.Y[id] = (float64(i/cols) + 0.5) * pitch
		}
	}
	assign()

	// Centroid refinement: move each cell toward the average position of
	// its placed neighbors (fanin pins in order, then fanout), then
	// re-legalize by a stable sort on the desired (y, x) back onto the
	// grid.
	fanout := n.Fanout()
	type want struct {
		id   netlist.GateID
		x, y float64
	}
	desired := make([]want, len(order))
	for pass := 0; pass < 3; pass++ {
		for i, id := range order {
			var sx, sy float64
			cnt := 0
			g := &n.Gates[id]
			for p := 0; p < g.Kind.NumInputs(); p++ {
				if in := g.In[p]; in != netlist.None && placed[in] {
					sx += r.X[in]
					sy += r.Y[in]
					cnt++
				}
			}
			for _, fo := range fanout[id] {
				if placed[fo] {
					sx += r.X[fo]
					sy += r.Y[fo]
					cnt++
				}
			}
			if cnt == 0 {
				desired[i] = want{id, r.X[id], r.Y[id]}
			} else {
				desired[i] = want{id, sx / float64(cnt), sy / float64(cnt)}
			}
		}
		slices.SortStableFunc(desired, func(a, b want) int {
			if c := cmp.Compare(a.y, b.y); c != 0 {
				return c
			}
			return cmp.Compare(a.x, b.x)
		})
		for i := range desired {
			order[i] = desired[i].id
		}
		assign()
	}

	// Half-perimeter wirelength per net.
	for _, id := range order {
		if len(fanout[id]) == 0 {
			continue
		}
		minX, maxX, minY, maxY := r.X[id], r.X[id], r.Y[id], r.Y[id]
		for _, fo := range fanout[id] {
			if !placed[fo] {
				continue
			}
			minX = math.Min(minX, r.X[fo])
			maxX = math.Max(maxX, r.X[fo])
			minY = math.Min(minY, r.Y[fo])
			maxY = math.Max(maxY, r.Y[fo])
		}
		l := (maxX - minX) + (maxY - minY)
		r.WireLenUm[id] = l
		r.TotalWireUm += l
	}
	return r
}
