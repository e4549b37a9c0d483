package bitsim

import (
	"math/rand"
	"testing"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
	"bespoke/internal/sim"
)

// memRig is a RAM and a ROM bound to shared address pins, simulated by
// one bit-parallel instance and by 64 scalar instances, one per lane.
type memRig struct {
	addr, wdata, ramOut, romOut []netlist.GateID
	en, wenLo, wenHi, romEn     netlist.GateID

	bs   *Sim
	ram  *RAM
	rom  *ROM
	ss   [Lanes]*sim.Sim
	sram [Lanes]*sim.RAM
}

func newMemRig(t *testing.T, addrBits int) *memRig {
	t.Helper()
	n := netlist.New()
	bus := func(k int) []netlist.GateID {
		ids := make([]netlist.GateID, k)
		for i := range ids {
			ids[i] = n.Add(netlist.Gate{Kind: netlist.Input})
		}
		return ids
	}
	m := &memRig{addr: bus(addrBits), wdata: bus(16), ramOut: bus(16), romOut: bus(16)}
	ctl := bus(4)
	m.en, m.wenLo, m.wenHi, m.romEn = ctl[0], ctl[1], ctl[2], ctl[3]
	for l := range m.ss {
		m.sram[l] = sim.NewRAM(m.addr, m.wdata, m.ramOut, m.en, m.wenLo, m.wenHi)
		s, err := sim.New(n, m.sram[l], sim.NewROM(m.addr, m.romOut, m.romEn))
		if err != nil {
			t.Fatal(err)
		}
		m.ss[l] = s
	}
	m.ram = NewRAM(m.sram[0])
	m.rom = NewROM(sim.NewROM(m.addr, m.romOut, m.romEn))
	bs, err := New(n, m.ram, m.rom)
	if err != nil {
		t.Fatal(err)
	}
	m.bs = bs
	return m
}

// romOf returns lane l's scalar ROM.
func (m *memRig) romOf(l int) *sim.ROM { return m.ss[l].Blocks()[1].(*sim.ROM) }

// drive sets pin id to v[l] in every lane of both engines.
func (m *memRig) drive(id netlist.GateID, v *[Lanes]logic.V) {
	var w W
	for l := range v {
		w = w.SetLane(l, v[l])
		m.ss[l].Drive(id, v[l])
	}
	m.bs.Drive(id, w)
}

// ramWord reads word i of lane l's column of the lane-aware RAM.
func (m *memRig) ramWord(l, i int) logic.Word {
	var w logic.Word
	for b, p := range m.ram.words[i] {
		w = w.SetBit(uint(b), p.Lane(l))
	}
	return w
}

// pick draws a three-valued value with the given odds of 0, 1 and X
// out of 8.
func pick(r *rand.Rand, zero, one int) logic.V {
	switch k := r.Intn(8); {
	case k < zero:
		return logic.Zero
	case k < zero+one:
		return logic.One
	}
	return logic.X
}

// TestMemoriesMatchScalarLanes is the oracle for the lane-aware RAM
// (Eval and Clock) and ROM (Eval): random per-lane pin planes — uniform,
// diverged, partly-X and all-X addresses, 0/1/X selects and write
// enables, X data bits — drive one bit-parallel instance and 64 scalar
// sim.RAM/sim.ROM instances, and after every step each lane's reads and
// every word of its RAM column must equal its scalar twin's. Data and
// preloads come from a small pool so merges meet equal known values.
func TestMemoriesMatchScalarLanes(t *testing.T) {
	const addrBits = 5
	steps := 300
	if testing.Short() {
		steps = 100
	}
	pool := []uint16{0x0000, 0xFFFF, 0x00FF, 0xA5A5}
	for trial := int64(0); trial < 4; trial++ {
		r := rand.New(rand.NewSource(trial))
		m := newMemRig(t, addrBits)
		size := 1 << addrBits

		// ROM images: a shared base, and in odd trials every third lane
		// running its own image.
		img := func() []byte {
			b := make([]byte, 2*size)
			r.Read(b)
			return b
		}
		toWords := func(b []byte) []uint16 {
			w := make([]uint16, len(b)/2)
			for i := range w {
				w[i] = uint16(b[2*i]) | uint16(b[2*i+1])<<8
			}
			return w
		}
		base := img()
		m.rom.LoadProgram(base, 0, 0)
		for l := range m.ss {
			m.romOf(l).Load(0, toWords(base))
			if trial%2 == 1 && l%3 == 0 {
				own := img()
				m.rom.LoadLaneProgram(l, own, 0, 0)
				m.romOf(l).Load(0, toWords(own))
			}
		}

		m.bs.Reset()
		for l := range m.ss {
			m.ss[l].Reset()
			for i := 0; i < size; i++ {
				if r.Intn(3) > 0 {
					w := logic.KnownWord(pool[r.Intn(len(pool))])
					m.ram.SetLaneWord(l, uint16(i), w)
					m.sram[l].SetWord(uint16(i), w)
				}
			}
		}

		for step := 0; step < steps; step++ {
			var v [Lanes]logic.V
			// Address: 0 uniform known, 1 diverged known, 2 partly X,
			// 3 all X.
			mode := r.Intn(4)
			uniform := uint16(r.Intn(size))
			var a [Lanes]logic.Word
			for l := range a {
				switch mode {
				case 0:
					a[l] = logic.KnownWord(uniform)
				case 1:
					a[l] = logic.KnownWord(uint16(r.Intn(size)))
				case 2:
					mask := uint16(0)
					if r.Intn(2) == 0 {
						mask = uint16(r.Intn(size))
					}
					a[l] = logic.Word{Val: uint16(r.Intn(size)) &^ mask, Mask: mask}
				case 3:
					a[l] = logic.Word{Mask: uint16(size - 1)}
				}
			}
			for b, id := range m.addr {
				for l := range v {
					v[l] = a[l].Bit(uint(b))
				}
				m.drive(id, &v)
			}
			for b, id := range m.wdata {
				word := pool[r.Intn(len(pool))]
				for l := range v {
					v[l] = logic.V(word >> uint(b) & 1)
					if r.Intn(16) == 0 {
						v[l] = logic.X
					}
				}
				m.drive(id, &v)
			}
			// Control pins: half the steps lockstep, half per lane.
			lockstep := r.Intn(2) == 0
			for _, id := range []netlist.GateID{m.en, m.wenLo, m.wenHi, m.romEn} {
				c := pick(r, 2, 5)
				for l := range v {
					if !lockstep {
						c = pick(r, 2, 5)
					}
					v[l] = c
				}
				m.drive(id, &v)
			}

			m.bs.Settle()
			for l, s := range m.ss {
				s.Settle()
				if got, want := m.bs.ReadBusLane(m.ramOut, l), s.ReadBus(m.ramOut); got != want {
					t.Fatalf("trial %d step %d lane %d: RAM read %v, scalar %v", trial, step, l, got, want)
				}
				if got, want := m.bs.ReadBusLane(m.romOut, l), s.ReadBus(m.romOut); got != want {
					t.Fatalf("trial %d step %d lane %d: ROM read %v, scalar %v", trial, step, l, got, want)
				}
			}
			for _, id := range append(m.ramOut[:len(m.ramOut):len(m.ramOut)], m.romOut...) {
				if w := m.bs.Val[id]; w.V&^w.D != 0 {
					t.Fatalf("trial %d step %d: read net %d has V set in an X lane", trial, step, id)
				}
			}

			m.bs.Edge()
			for l, s := range m.ss {
				s.Edge()
				for i := 0; i < size; i++ {
					if got, want := m.ramWord(l, i), m.sram[l].Word(uint16(i)); got != want {
						t.Fatalf("trial %d step %d lane %d word %d: %v, scalar %v", trial, step, l, i, got, want)
					}
				}
			}
			for i := range m.ram.words {
				for b, w := range m.ram.words[i] {
					if w.V&^w.D != 0 {
						t.Fatalf("trial %d step %d word %d bit %d: V set in an X lane", trial, step, i, b)
					}
				}
			}
		}
	}
}
