// Package tnum implements tristate numbers, the bit-level abstract domain
// the eBPF verifier uses to track partially-known register values. A tnum
// (Value, Mask) represents every concrete 64-bit number n such that
// n &^ Mask == Value; bits set in Mask are unknown, bits clear in Mask are
// known and equal to the corresponding bit of Value.
//
// The operations are a faithful port of the kernel's kernel/bpf/tnum.c, and
// each is sound: if a is in ta and b is in tb, then op(a,b) is in
// Op(ta,tb). The property-based tests in this package check exactly that.
package tnum

import "fmt"

// Tnum is a tristate number. The zero value represents the constant 0.
type Tnum struct {
	Value uint64 // known bit values
	Mask  uint64 // unknown bit positions
}

// Unknown represents a completely unknown 64-bit value.
var Unknown = Tnum{Value: 0, Mask: ^uint64(0)}

// Const returns the tnum representing exactly v.
func Const(v uint64) Tnum { return Tnum{Value: v} }

// Range returns the tnum covering the inclusive range [min, max].
// It mirrors the kernel's tnum_range. An inverted range (min > max)
// denotes an empty interval the caller failed to normalize; there is no
// empty tnum, so Range answers with the sound over-approximation Unknown
// rather than fabricating a bogus partial-bits pattern from the XOR fold.
func Range(min, max uint64) Tnum {
	if min > max {
		return Unknown
	}
	chi := min ^ max
	bits := fls64(chi)
	if bits > 63 {
		return Unknown
	}
	delta := uint64(1)<<bits - 1
	return Tnum{Value: min &^ delta, Mask: delta}
}

// fls64 returns the index of the most significant set bit plus one,
// or 0 if x is zero (like the kernel's fls64).
func fls64(x uint64) uint {
	n := uint(0)
	for x != 0 {
		x >>= 1
		n++
	}
	return n
}

// IsConst reports whether the tnum represents exactly one value.
func (t Tnum) IsConst() bool { return t.Mask == 0 }

// Contains reports whether concrete value v is a member of t.
func (t Tnum) Contains(v uint64) bool { return v&^t.Mask == t.Value }

// IsUnknown reports whether every bit is unknown.
func (t Tnum) IsUnknown() bool { return t.Mask == ^uint64(0) && t.Value == 0 }

// Lshift returns t << shift.
func (t Tnum) Lshift(shift uint8) Tnum {
	return Tnum{Value: t.Value << shift, Mask: t.Mask << shift}
}

// Rshift returns t >> shift (logical).
func (t Tnum) Rshift(shift uint8) Tnum {
	return Tnum{Value: t.Value >> shift, Mask: t.Mask >> shift}
}

// Arshift returns t >> shift (arithmetic) at the given insn bitness
// (32 or 64), mirroring tnum_arshift.
func (t Tnum) Arshift(shift uint8, insnBitness uint8) Tnum {
	if insnBitness == 32 {
		return Tnum{
			Value: uint64(uint32(int32(uint32(t.Value)) >> (shift & 31))),
			Mask:  uint64(uint32(int32(uint32(t.Mask)) >> (shift & 31))),
		}
	}
	return Tnum{
		Value: uint64(int64(t.Value) >> (shift & 63)),
		Mask:  uint64(int64(t.Mask) >> (shift & 63)),
	}
}

// Add returns the sum a + b.
func Add(a, b Tnum) Tnum {
	sm := a.Mask + b.Mask
	sv := a.Value + b.Value
	sigma := sm + sv
	chi := sigma ^ sv
	mu := chi | a.Mask | b.Mask
	return Tnum{Value: sv &^ mu, Mask: mu}
}

// Sub returns the difference a - b.
func Sub(a, b Tnum) Tnum {
	dv := a.Value - b.Value
	alpha := dv + a.Mask
	beta := dv - b.Mask
	chi := alpha ^ beta
	mu := chi | a.Mask | b.Mask
	return Tnum{Value: dv &^ mu, Mask: mu}
}

// And returns the bitwise conjunction a & b.
func And(a, b Tnum) Tnum {
	alpha := a.Value | a.Mask
	beta := b.Value | b.Mask
	v := a.Value & b.Value
	return Tnum{Value: v, Mask: alpha & beta &^ v}
}

// Or returns the bitwise disjunction a | b.
func Or(a, b Tnum) Tnum {
	v := a.Value | b.Value
	mu := a.Mask | b.Mask
	return Tnum{Value: v, Mask: mu &^ v}
}

// Xor returns the bitwise exclusive-or a ^ b.
func Xor(a, b Tnum) Tnum {
	v := a.Value ^ b.Value
	mu := a.Mask | b.Mask
	return Tnum{Value: v &^ mu, Mask: mu}
}

// Mul returns the product a * b. Like the kernel implementation it
// decomposes a into (known, unknown) halves and accumulates partial
// products; it is sound but not maximally precise.
func Mul(a, b Tnum) Tnum {
	acc_v := a.Value * b.Value
	acc_m := Tnum{}
	for a.Value != 0 || a.Mask != 0 {
		if a.Value&1 != 0 {
			acc_m = Add(acc_m, Tnum{Value: 0, Mask: b.Mask})
		} else if a.Mask&1 != 0 {
			acc_m = Add(acc_m, Tnum{Value: 0, Mask: b.Value | b.Mask})
		}
		a = a.Rshift(1)
		b = b.Lshift(1)
	}
	return Add(Tnum{Value: acc_v}, acc_m)
}

// Intersect returns a tnum whose members are in both a and b. The caller
// must know the intersection is non-empty (e.g. after a successful
// comparison), as in the kernel.
func Intersect(a, b Tnum) Tnum {
	v := a.Value | b.Value
	mu := a.Mask & b.Mask
	return Tnum{Value: v &^ mu, Mask: mu}
}

// Union returns the smallest tnum containing both a and b
// (kernel: tnum_union).
func Union(a, b Tnum) Tnum {
	v := a.Value & b.Value
	mu := (a.Value ^ b.Value) | a.Mask | b.Mask
	return Tnum{Value: v &^ mu, Mask: mu}
}

// Cast truncates t to the low size bytes.
func (t Tnum) Cast(size uint8) Tnum {
	if size >= 8 {
		return t
	}
	mask := uint64(1)<<(size*8) - 1
	return Tnum{Value: t.Value & mask, Mask: t.Mask & mask}
}

// IsAligned reports whether every member of t is size-aligned.
func (t Tnum) IsAligned(size uint64) bool {
	if size == 0 {
		return true
	}
	return (t.Value|t.Mask)&(size-1) == 0
}

// In reports whether every member of a is also a member of b
// (a is a subset of b).
func In(a, b Tnum) bool {
	if a.Mask&^b.Mask != 0 {
		return false
	}
	return a.Value&^b.Mask == b.Value&^b.Mask
}

// Subreg returns the tnum for the low 32-bit subregister of t.
func (t Tnum) Subreg() Tnum { return t.Cast(4) }

// ClearSubreg returns t with its low 32 bits known to be zero.
func (t Tnum) ClearSubreg() Tnum {
	return Tnum{Value: t.Value &^ 0xffffffff, Mask: t.Mask &^ 0xffffffff}
}

// WithSubreg returns t with its low 32 bits replaced by subreg's low 32
// bits (kernel: tnum_with_subreg).
func (t Tnum) WithSubreg(subreg Tnum) Tnum {
	hi := Tnum{Value: t.Value &^ 0xffffffff, Mask: t.Mask &^ 0xffffffff}
	lo := subreg.Cast(4)
	return Tnum{Value: hi.Value | lo.Value, Mask: hi.Mask | lo.Mask}
}

// Min returns the smallest unsigned value in t.
func (t Tnum) Min() uint64 { return t.Value }

// Max returns the largest unsigned value in t.
func (t Tnum) Max() uint64 { return t.Value | t.Mask }

// String renders the tnum as the kernel does: a constant prints as its
// value, otherwise as (value; mask).
func (t Tnum) String() string {
	if t.IsConst() {
		return fmt.Sprintf("%#x", t.Value)
	}
	return fmt.Sprintf("(%#x; %#x)", t.Value, t.Mask)
}
