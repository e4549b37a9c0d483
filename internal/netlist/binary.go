package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"bespoke/internal/logic"
)

// The canonical binary netlist format. Encoding is deterministic: two
// structurally identical netlists produce byte-identical encodings, so
// the encoded form doubles as a content-address (see Hash) for caching
// tailored designs and as the oracle in build-determinism tests.
//
// Layout (all integers are unsigned varints unless noted):
//
//	magic "BNL1"
//	module count, then each module path (length-prefixed bytes)
//	gate count, then each gate:
//	    kind (1 byte), reset (1 byte),
//	    in[0..2] as signed varints (None = -1),
//	    module index, name (length-prefixed bytes)
//	input count, then each input gate ID
//	output count, then each port name (length-prefixed) and gate ID
const binaryMagic = "BNL1"

// Encode renders n into the canonical binary form.
func Encode(n *Netlist) []byte {
	// Size estimate: ~12 bytes per gate plus names; avoids regrowth.
	buf := make([]byte, 0, len(n.Gates)*12+len(binaryMagic))
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(n.Modules)))
	for _, m := range n.Modules {
		buf = appendString(buf, m)
	}
	buf = binary.AppendUvarint(buf, uint64(len(n.Gates)))
	for i := range n.Gates {
		g := &n.Gates[i]
		buf = append(buf, byte(g.Kind), byte(g.Reset))
		for p := 0; p < 3; p++ {
			buf = binary.AppendVarint(buf, int64(g.In[p]))
		}
		buf = binary.AppendUvarint(buf, uint64(g.Module))
		buf = appendString(buf, g.Name)
	}
	buf = binary.AppendUvarint(buf, uint64(len(n.Inputs)))
	for _, id := range n.Inputs {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	buf = binary.AppendUvarint(buf, uint64(len(n.Outputs)))
	for _, o := range n.Outputs {
		buf = appendString(buf, o.Name)
		buf = binary.AppendUvarint(buf, uint64(o.Gate))
	}
	return buf
}

// Hash returns the SHA-256 content address of n's canonical encoding.
func Hash(n *Netlist) [sha256.Size]byte { return sha256.Sum256(Encode(n)) }

// Decode parses a canonical binary netlist. The result carries no
// derived tables; structural sanity (pin ranges, module indices) is
// checked during parsing, full validation is up to the caller.
func Decode(data []byte) (*Netlist, error) {
	d := &decoder{data: data}
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("netlist: bad magic (not a binary netlist)")
	}
	d.pos = len(binaryMagic)

	n := &Netlist{}
	// Every decoded element consumes at least one input byte, so any
	// count larger than the remaining input is corrupt. Checking before
	// the make() keeps a forged header from forcing a huge allocation.
	nMod := d.uvarint("module count")
	if d.err == nil && nMod > uint64(len(data)) {
		return nil, fmt.Errorf("netlist: module count %d exceeds input size", nMod)
	}
	n.Modules = make([]string, 0, nMod)
	for i := uint64(0); i < nMod; i++ {
		n.Modules = append(n.Modules, d.str("module path"))
	}
	nGates := d.uvarint("gate count")
	if d.err == nil && nGates > uint64(len(data)) {
		return nil, fmt.Errorf("netlist: gate count %d exceeds input size", nGates)
	}
	n.Gates = make([]Gate, nGates)
	for i := uint64(0); i < nGates && d.err == nil; i++ {
		g := &n.Gates[i]
		g.Kind = Kind(d.byte("gate kind"))
		g.Reset = logic.V(d.byte("gate reset"))
		for p := 0; p < 3; p++ {
			g.In[p] = GateID(d.varint("gate input"))
		}
		g.Module = ModuleID(d.uvarint("gate module"))
		g.Name = d.str("gate name")
		if d.err == nil {
			if int(g.Kind) >= NumKinds {
				return nil, fmt.Errorf("netlist: gate %d: unknown kind %d", i, g.Kind)
			}
			if int(g.Module) >= len(n.Modules) {
				return nil, fmt.Errorf("netlist: gate %d: module %d out of range", i, g.Module)
			}
			for p := 0; p < 3; p++ {
				if in := g.In[p]; in != None && (in < 0 || uint64(in) >= nGates) {
					return nil, fmt.Errorf("netlist: gate %d: input %d out of range", i, in)
				}
			}
		}
	}
	nIn := d.uvarint("input count")
	if d.err == nil && nIn > uint64(len(data)) {
		return nil, fmt.Errorf("netlist: input count %d exceeds input size", nIn)
	}
	n.Inputs = make([]GateID, 0, nIn)
	for i := uint64(0); i < nIn && d.err == nil; i++ {
		id := GateID(d.uvarint("input ID"))
		if d.err == nil && uint64(id) >= nGates {
			return nil, fmt.Errorf("netlist: input %d out of range", id)
		}
		n.Inputs = append(n.Inputs, id)
	}
	nOut := d.uvarint("output count")
	if d.err == nil && nOut > uint64(len(data)) {
		return nil, fmt.Errorf("netlist: output count %d exceeds input size", nOut)
	}
	n.Outputs = make([]Port, 0, nOut)
	for i := uint64(0); i < nOut && d.err == nil; i++ {
		name := d.str("output name")
		id := GateID(d.uvarint("output ID"))
		if d.err == nil && uint64(id) >= nGates {
			return nil, fmt.Errorf("netlist: output %d out of range", id)
		}
		n.Outputs = append(n.Outputs, Port{Name: name, Gate: id})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("netlist: %d trailing bytes after netlist", len(data)-d.pos)
	}
	return n, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder tracks a parse position and the first error; all reads after
// an error return zero values, so parse loops need no per-read checks.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("netlist: truncated or malformed %s at byte %d", what, d.pos)
	}
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.fail(what)
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	// Inline the one- and two-byte forms (modules, name lengths and the
	// gate IDs of a core-sized netlist); longer ones take the library path.
	if p := d.pos; p < len(d.data) && d.data[p] < 0x80 {
		d.pos++
		return uint64(d.data[p])
	} else if p+1 < len(d.data) && d.data[p+1] < 0x80 {
		d.pos += 2
		return uint64(d.data[p]&0x7f) | uint64(d.data[p+1])<<7
	}
	v, k := binary.Uvarint(d.data[d.pos:])
	if k <= 0 {
		d.fail(what)
		return 0
	}
	d.pos += k
	return v
}

// varint undoes the zig-zag mapping binary.AppendVarint applies.
func (d *decoder) varint(what string) int64 {
	ux := d.uvarint(what)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (d *decoder) str(what string) string {
	ln := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if uint64(len(d.data)-d.pos) < ln {
		d.fail(what)
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(ln)])
	d.pos += int(ln)
	return s
}
