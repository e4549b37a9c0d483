// Package logic provides the three-valued logic domain {0, 1, X} used by
// the gate-level simulator and the input-independent gate activity
// analysis. X represents an unknown value that must be treated as "could
// be 0 or 1"; every operator is the natural conservative extension of its
// Boolean counterpart (an output is X only if some assignment of the X
// inputs could produce 0 and another could produce 1).
package logic

import "fmt"

// V is a three-valued logic value.
type V uint8

const (
	// Zero is logical 0.
	Zero V = 0
	// One is logical 1.
	One V = 1
	// X is an unknown value, possibly 0 or possibly 1.
	X V = 2
)

// FromBool converts a Go bool to a logic value.
func FromBool(b bool) V {
	if b {
		return One
	}
	return Zero
}

// Known reports whether v is a concrete 0 or 1.
func (v V) Known() bool { return v != X }

// Bool returns the concrete value; it panics if v is X.
func (v V) Bool() bool {
	switch v {
	case Zero:
		return false
	case One:
		return true
	}
	panic("logic: Bool of X") // panic-ok: Bool of X is a caller contract violation, documented above
}

// String returns "0", "1" or "x".
func (v V) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "x"
	}
	return fmt.Sprintf("V(%d)", uint8(v))
}

// Not returns the three-valued complement.
func Not(a V) V {
	switch a {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

// And returns the three-valued conjunction: 0 dominates X.
func And(a, b V) V {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

// Or returns the three-valued disjunction: 1 dominates X.
func Or(a, b V) V {
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

// Xor returns the three-valued exclusive or; X in either input yields X.
func Xor(a, b V) V {
	if a == X || b == X {
		return X
	}
	if a == b {
		return Zero
	}
	return One
}

// Mux returns a when sel==0, b when sel==1. When sel is X the result is
// known only if both data inputs agree.
func Mux(sel, a, b V) V {
	switch sel {
	case Zero:
		return a
	case One:
		return b
	}
	if a == b && a != X {
		return a
	}
	return X
}

// Merge returns the most conservative value covering both a and b:
// the value itself if they agree, X otherwise. It is the join of the
// information lattice used for conservative state merging.
func Merge(a, b V) V {
	if a == b {
		return a
	}
	return X
}

// Covers reports whether a is at least as conservative as b: a==X or a==b.
// A state s1 covers s2 when every variable of s1 covers the corresponding
// variable of s2; exploring s1 subsumes exploring s2.
func Covers(a, b V) bool { return a == X || a == b }

// Word is a 16-bit three-valued word stored as a value/unknown-mask pair.
// Bit i is X when Mask bit i is 1; otherwise it equals Val bit i.
// Val bits under the mask are kept at 0 so Words compare with ==.
type Word struct {
	Val  uint16
	Mask uint16 // 1 = unknown (X)
}

// KnownWord returns a fully known word.
func KnownWord(v uint16) Word { return Word{Val: v} }

// XWord is the fully unknown word.
var XWord = Word{Val: 0, Mask: 0xFFFF}

// Known reports whether every bit of w is concrete.
func (w Word) Known() bool { return w.Mask == 0 }

// Bit returns bit i of w as a logic value.
func (w Word) Bit(i uint) V {
	if w.Mask>>i&1 == 1 {
		return X
	}
	return V(w.Val >> i & 1)
}

// SetBit returns w with bit i set to v.
func (w Word) SetBit(i uint, v V) Word {
	w.Val &^= 1 << i
	w.Mask &^= 1 << i
	switch v {
	case One:
		w.Val |= 1 << i
	case X:
		w.Mask |= 1 << i
	}
	return w
}

// Merge returns the conservative union of two words (differing bits
// become X).
func (w Word) Merge(o Word) Word {
	diff := (w.Val ^ o.Val) | w.Mask | o.Mask
	return Word{Val: w.Val &^ diff, Mask: diff}
}

// MergeLane writes the byte lane of data starting at bit shift into w.
// A definite write overwrites the lane; a possible one (an X write
// enable) merges it conservatively with the old contents.
func (w Word) MergeLane(data Word, shift uint, definite bool) Word {
	for i := uint(0); i < 8; i++ {
		bit := shift + i
		v := data.Bit(bit)
		if definite {
			w = w.SetBit(bit, v)
		} else {
			w = w.SetBit(bit, Merge(w.Bit(bit), v))
		}
	}
	return w
}

// Covers reports whether w is at least as conservative as o.
func (w Word) Covers(o Word) bool {
	// Every bit: w.X, or both known and equal (o must be known there).
	known := ^w.Mask
	return o.Mask&known == 0 && (w.Val^o.Val)&known&^o.Mask == 0
}

// String formats the word as 16 bits, msb first, with x for unknowns.
func (w Word) String() string {
	b := make([]byte, 16)
	for i := 0; i < 16; i++ {
		bit := uint(15 - i)
		switch w.Bit(bit) {
		case Zero:
			b[i] = '0'
		case One:
			b[i] = '1'
		default:
			b[i] = 'x'
		}
	}
	return string(b)
}
