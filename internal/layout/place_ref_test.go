package layout

import (
	"math"
	"sort"
	"testing"

	"bespoke/internal/cells"
	"bespoke/internal/cpu"
	"bespoke/internal/netlist"
)

// placeReference is the original map-based placer, kept as the oracle
// Place must reproduce bit for bit: positions in a map keyed by gate,
// desired centroids in a second map, and a stable sort whose comparator
// looks both up.
func placeReference(n *netlist.Netlist, lib *cells.Library) *Result {
	r := &Result{
		Utilization: defaultUtilization,
		WireLenUm:   make([]float64, len(n.Gates)),
		X:           make([]float64, len(n.Gates)),
		Y:           make([]float64, len(n.Gates)),
	}
	var cellsToPlace []netlist.GateID
	for i := range n.Gates {
		k := n.Gates[i].Kind
		switch k {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		r.CellAreaUm2 += lib.ByKind[k].Area
		cellsToPlace = append(cellsToPlace, netlist.GateID(i))
	}
	if len(cellsToPlace) == 0 {
		return r
	}
	r.AreaUm2 = r.CellAreaUm2 / r.Utilization
	side := math.Sqrt(r.AreaUm2)
	cols := int(math.Ceil(math.Sqrt(float64(len(cellsToPlace)))))
	pitch := side / float64(cols)

	lv, _, err := n.Levels()
	if err != nil {
		lv = make([]int32, len(n.Gates))
	}
	sort.SliceStable(cellsToPlace, func(a, b int) bool { return lv[cellsToPlace[a]] < lv[cellsToPlace[b]] })

	type pt struct{ x, y float64 }
	pos := make(map[netlist.GateID]pt, len(cellsToPlace))
	assign := func(order []netlist.GateID) {
		for i, id := range order {
			pos[id] = pt{
				x: (float64(i%cols) + 0.5) * pitch,
				y: (float64(i/cols) + 0.5) * pitch,
			}
		}
	}
	assign(cellsToPlace)

	fanout := n.Fanout()
	neighbors := func(id netlist.GateID, f func(netlist.GateID)) {
		g := &n.Gates[id]
		ni := g.Kind.NumInputs()
		for p := 0; p < ni; p++ {
			if in := g.In[p]; in != netlist.None {
				f(in)
			}
		}
		for _, fo := range fanout[id] {
			f(fo)
		}
	}

	for pass := 0; pass < 3; pass++ {
		desired := make(map[netlist.GateID]pt, len(cellsToPlace))
		for _, id := range cellsToPlace {
			var sx, sy float64
			cnt := 0
			neighbors(id, func(nb netlist.GateID) {
				if p, ok := pos[nb]; ok {
					sx += p.x
					sy += p.y
					cnt++
				}
			})
			if cnt == 0 {
				desired[id] = pos[id]
			} else {
				desired[id] = pt{sx / float64(cnt), sy / float64(cnt)}
			}
		}
		sort.SliceStable(cellsToPlace, func(a, b int) bool {
			da, db := desired[cellsToPlace[a]], desired[cellsToPlace[b]]
			if da.y != db.y {
				return da.y < db.y
			}
			return da.x < db.x
		})
		assign(cellsToPlace)
	}

	for id, p := range pos {
		r.X[id], r.Y[id] = p.x, p.y
	}
	for _, id := range cellsToPlace {
		if len(fanout[id]) == 0 {
			continue
		}
		p := pos[id]
		minX, maxX, minY, maxY := p.x, p.x, p.y, p.y
		for _, fo := range fanout[id] {
			q, ok := pos[fo]
			if !ok {
				continue
			}
			minX = math.Min(minX, q.x)
			maxX = math.Max(maxX, q.x)
			minY = math.Min(minY, q.y)
			maxY = math.Max(maxY, q.y)
		}
		l := (maxX - minX) + (maxY - minY)
		r.WireLenUm[id] = l
		r.TotalWireUm += l
	}
	return r
}

// sameBits reports whether two float slices are bit-identical.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// cutBlob returns a blob with every fifth gate tied to a constant in
// place, the way the cut stage stitches constants: readers of a tied
// gate lose a placed neighbour, and the gates that fed it are left with
// dangling (shorter or empty) fanout.
func cutBlob(nGates int) *netlist.Netlist {
	n := buildBlob(nGates).N
	for i := range n.Gates {
		if i%5 == 0 && n.Gates[i].Kind != netlist.Input {
			n.Gates[i].Kind = netlist.Const0
		}
	}
	n.InvalidateDerived()
	return n
}

func TestPlaceMatchesReference(t *testing.T) {
	lib := cells.TSMC65()
	designs := map[string]func() *netlist.Netlist{
		"blob-32":   func() *netlist.Netlist { return buildBlob(32).N },
		"blob-256":  func() *netlist.Netlist { return buildBlob(256).N },
		"blob-2048": func() *netlist.Netlist { return buildBlob(2048).N },
		"cut-blob":  func() *netlist.Netlist { return cutBlob(1024) },
		"empty":     func() *netlist.Netlist { return netlist.New() },
		"base-core": func() *netlist.Netlist { return cpu.Build().N },
	}
	for name, mk := range designs {
		t.Run(name, func(t *testing.T) {
			// Separate netlists, so neither placer sees tables the other
			// cached.
			got, want := Place(mk(), lib), placeReference(mk(), lib)
			for _, f := range []struct {
				name     string
				got, ref []float64
			}{
				{"X", got.X, want.X},
				{"Y", got.Y, want.Y},
				{"WireLenUm", got.WireLenUm, want.WireLenUm},
				{"scalars", []float64{got.TotalWireUm, got.AreaUm2, got.CellAreaUm2, got.Utilization},
					[]float64{want.TotalWireUm, want.AreaUm2, want.CellAreaUm2, want.Utilization}},
			} {
				if i, ok := sameBits(f.got, f.ref); !ok {
					t.Errorf("%s differs from the reference at index %d", f.name, i)
				}
			}
		})
	}
}
