// Lane-aware memory macros. The RAM stores its contents in plane form —
// words[i][b] is bit b of word i across all 64 lanes — and reads and
// commits writes plane-wise for every lane at once: one walk down the
// address bits visits each word some lane can reach, skipping subtrees
// no lane reaches, so lockstep lanes cost one path and diverged lanes
// one path each. The semantics are the scalar RAM's conservative X
// semantics lane for lane: an X address reads all-X, a possible write
// (X select or write enable) merges, and a write to an unknown address
// merges into every reachable word. The ROM keeps one concrete image
// per lane, aliasing a shared base image until a lane is given its own
// program (mutant packing), so the uniform case stays a single-word
// broadcast.
package bitsim

import (
	"math/bits"

	"bespoke/internal/logic"
	"bespoke/internal/netlist"
)

// ROM is the lane-aware asynchronous-read program memory: concrete
// contents per lane, aliased to a shared base image until a lane is
// customized with its own program.
type ROM struct {
	addr  []netlist.GateID
	rdata []netlist.GateID
	en    netlist.GateID

	base    []uint16
	lanes   [Lanes][]uint16 // each aliases base until customized
	uniform bool

	in []W // scratch: addr planes
}

// NewROM builds a lane-aware ROM bound to the same pins as the scalar
// macro, with all lanes sharing a zeroed base image.
func NewROM(scalar interface {
	Pins() (addr, rdata []netlist.GateID, en netlist.GateID)
	Words() []uint16
}) *ROM {
	addr, rdata, en := scalar.Pins()
	r := &ROM{
		addr: addr, rdata: rdata, en: en,
		base:    make([]uint16, len(scalar.Words())),
		uniform: true,
		in:      make([]W, len(addr)),
	}
	for l := range r.lanes {
		r.lanes[l] = r.base
	}
	return r
}

// LoadProgram writes an image into the shared base (all lanes that still
// alias it), mirroring cpu.LoadProgram's byte packing.
func (r *ROM) LoadProgram(image []byte, loadAddr, romStart uint16) {
	loadInto(r.base, image, loadAddr, romStart)
}

// LoadLaneProgram gives lane l a private copy of the base image with the
// given program loaded over it (mutant packing: every lane runs its own
// binary on the shared netlist).
func (r *ROM) LoadLaneProgram(l int, image []byte, loadAddr, romStart uint16) {
	words := append([]uint16(nil), r.base...)
	loadInto(words, image, loadAddr, romStart)
	r.lanes[l] = words
	r.uniform = false
}

func loadInto(words []uint16, image []byte, loadAddr, romStart uint16) {
	for i := 0; i+1 < len(image); i += 2 {
		a := loadAddr + uint16(i)
		words[(a-romStart)/2] = uint16(image[i]) | uint16(image[i+1])<<8
	}
	if len(image)%2 == 1 {
		a := loadAddr + uint16(len(image)) - 1
		w := words[(a-romStart)/2]
		words[(a-romStart)/2] = w&0xFF00 | uint16(image[len(image)-1])
	}
}

// LaneWord returns word index i of lane l's image.
func (r *ROM) LaneWord(l int, i uint16) uint16 { return r.lanes[l][i] }

// Inputs implements Block.
func (r *ROM) Inputs() []netlist.GateID {
	return append(append([]netlist.GateID(nil), r.addr...), r.en)
}

// Outputs implements Block.
func (r *ROM) Outputs() []netlist.GateID { return r.rdata }

// Eval implements Block: combinational read across all lanes. A lane
// with a known-zero select reads 0, one with an X select or an address
// with an X bit reads X, and every other lane reads its own image; when
// all lanes share the base image and one known address, that word is
// broadcast.
func (r *ROM) Eval(s *Sim) {
	en := s.Val[r.en]
	rd := en.V // lanes that read a word: select known 1, address known
	uni := r.uniform
	var a uint16
	for i, id := range r.addr {
		p := s.Val[id]
		r.in[i] = p
		rd &= p.D
		if p.V == ^uint64(0) {
			a |= 1 << uint(i)
		} else if p.V != 0 {
			uni = false
		}
	}
	var outV [16]uint64
	if uni && rd == ^uint64(0) {
		w := uint64(r.base[a])
		for b := range r.rdata {
			outV[b] = -(w >> uint(b) & 1)
		}
	} else {
		for m := rd; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			a = 0
			for i := range r.in {
				a |= uint16(r.in[i].V>>uint(l)&1) << uint(i)
			}
			w := uint64(r.lanes[l][a])
			for b := range r.rdata {
				outV[b] |= (w >> uint(b) & 1) << uint(l)
			}
		}
	}
	d := rd | en.D&^en.V
	for b, id := range r.rdata {
		s.BlockDrive(id, W{outV[b], d})
	}
}

// Clock implements Block (no-op: read-only).
func (r *ROM) Clock(*Sim) {}

// Reset implements Block (contents persist: mask ROM).
func (r *ROM) Reset(*Sim) {}

// RAM is the lane-aware data memory. Contents are stored as bit planes
// per word; power-on state is all-X in every lane.
type RAM struct {
	addr  []netlist.GateID
	wdata []netlist.GateID
	rdata []netlist.GateID
	en    netlist.GateID
	wenLo netlist.GateID
	wenHi netlist.GateID

	words [][16]W

	ain         []W       // scratch: addr planes
	din, out    [16]W     // scratch: wdata planes and read result
	over, merge [2]uint64 // scratch: per-byte overwrite and merge lanes
}

// NewRAM builds a lane-aware RAM bound to the same pins as the scalar
// macro.
func NewRAM(scalar interface {
	Pins() (addr, wdata, rdata []netlist.GateID, en, wenLo, wenHi netlist.GateID)
	Size() int
}) *RAM {
	addr, wdata, rdata, en, wenLo, wenHi := scalar.Pins()
	return &RAM{
		addr: addr, wdata: wdata, rdata: rdata,
		en: en, wenLo: wenLo, wenHi: wenHi,
		words: make([][16]W, scalar.Size()),
		ain:   make([]W, len(addr)),
	}
}

// SetLaneWord overwrites word index i in lane l only (per-lane workload
// preloading).
func (r *RAM) SetLaneWord(l int, i uint16, w logic.Word) {
	for b := 0; b < 16; b++ {
		r.words[i][b] = r.words[i][b].SetLane(l, w.Bit(uint(b)))
	}
}

// Inputs implements Block.
func (r *RAM) Inputs() []netlist.GateID {
	in := append([]netlist.GateID(nil), r.addr...)
	in = append(in, r.wdata...)
	return append(in, r.en, r.wenLo, r.wenHi)
}

// Outputs implements Block.
func (r *RAM) Outputs() []netlist.GateID { return r.rdata }

// Eval implements Block: combinational read. A lane with a known-zero
// select reads 0, one with an X select or an address with an X bit
// reads X, and every other lane reads its own column of the addressed
// word.
func (r *RAM) Eval(s *Sim) {
	en := s.Val[r.en]
	rd := en.V // lanes that read a word: select known 1, address known
	for i, id := range r.addr {
		r.ain[i] = s.Val[id]
		rd &= r.ain[i].D
	}
	r.out = [16]W{}
	r.walk(len(r.ain)-1, 0, rd, (*RAM).readWord)
	zero := en.D &^ en.V
	for b, id := range r.rdata {
		s.BlockDrive(id, W{r.out[b].V, r.out[b].D | zero})
	}
}

// readWord gathers word i's planes into the read result for the lanes
// in reach.
func (r *RAM) readWord(i int, reach uint64) {
	w := &r.words[i]
	for b := range r.out {
		r.out[b].V |= w[b].V & reach
		r.out[b].D |= w[b].D & reach
	}
}

// Clock implements Block: commit writes from settled pin values with
// the scalar RAM's conservative semantics, all lanes at once. Per byte,
// a lane whose select and byte enable may both be 1 writes. It
// overwrites when its address is known and both enables are known 1;
// any other writing lane (X enable, or an address with X bits, which
// reaches every word it could equal) merges the data into the old
// contents.
func (r *RAM) Clock(s *Sim) {
	wl, wh := s.Val[r.wenLo], s.Val[r.wenHi]
	en := s.Val[r.en]
	enOn := en.V | ^en.D
	lo, hi := enOn&(wl.V|^wl.D), enOn&(wh.V|^wh.D)
	if lo|hi == 0 {
		return
	}
	def := en.V // lanes with select known 1 and a known address
	for i, id := range r.addr {
		r.ain[i] = s.Val[id]
		def &= r.ain[i].D
	}
	for i, id := range r.wdata {
		r.din[i] = s.Val[id]
	}
	r.over = [2]uint64{lo & def & wl.V, hi & def & wh.V}
	r.merge = [2]uint64{lo &^ r.over[0], hi &^ r.over[1]}
	r.walk(len(r.ain)-1, 0, lo|hi, (*RAM).writeWord)
}

// writeWord commits the pending write into word i for the lanes in
// reach: overwrite lanes take the data, merge lanes keep a bit known
// only where the old contents and the data agree on a known value.
func (r *RAM) writeWord(i int, reach uint64) {
	for k := 0; k < 2; k++ {
		o, m := r.over[k]&reach, r.merge[k]&reach
		if o|m == 0 {
			continue
		}
		keep := ^(o | m)
		w := (*[8]W)(r.words[i][8*k:])
		d := (*[8]W)(r.din[8*k:])
		for b := range w {
			old := w[b]
			agree := old.D & d[b].D &^ (old.V ^ d[b].V) & m
			w[b] = W{old.V&keep | d[b].V&o | old.V&agree, old.D&keep | d[b].D&o | agree}
		}
	}
}

// walk visits every word the address planes in r.ain can reach from
// the lanes in reach, calling leaf once per word with the lanes that
// reach it. Address bits from bit down to 0 split the lanes: a known
// bit sends a lane one way, an X bit both ways, and a subtree no lane
// reaches is skipped.
func (r *RAM) walk(bit, i int, reach uint64, leaf func(*RAM, int, uint64)) {
	if reach == 0 {
		return
	}
	if bit < 0 {
		leaf(r, i, reach)
		return
	}
	a := r.ain[bit]
	r.walk(bit-1, i|1<<uint(bit), reach&(a.V|^a.D), leaf)
	r.walk(bit-1, i, reach&^a.V, leaf)
}

// Reset implements Block: all words become X in every lane.
func (r *RAM) Reset(*Sim) {
	for i := range r.words {
		r.words[i] = [16]W{}
	}
}
