// Package verifier implements a model of the Linux eBPF verifier: abstract
// interpretation of programs over a register-state domain (tristate numbers
// plus signed/unsigned ranges, and a dozen pointer types), path exploration
// with state pruning, stack-slot tracking, helper and kfunc call checking,
// context and packet access rules, and the post-verification rewrite
// (fixup) phase.
//
// The model intentionally reproduces, behind bug knobs (internal/bugs), the
// root causes of the correctness bugs from the paper's Table 2 so that the
// evaluation campaigns have ground truth to rediscover.
package verifier

import (
	"fmt"
	"math"

	"repro/internal/btf"
	"repro/internal/tnum"
)

// RegType classifies the abstract value held in a register.
type RegType int

// Register types, mirroring the kernel's bpf_reg_type.
const (
	NotInit RegType = iota
	Scalar
	PtrToCtx
	ConstPtrToMap
	PtrToMapValue
	PtrToStack
	PtrToPacket
	PtrToPacketEnd
	PtrToBTFID
	PtrToMem
)

var regTypeNames = map[RegType]string{
	NotInit: "?", Scalar: "scalar", PtrToCtx: "ctx",
	ConstPtrToMap: "map_ptr", PtrToMapValue: "map_value",
	PtrToStack: "fp", PtrToPacket: "pkt", PtrToPacketEnd: "pkt_end",
	PtrToBTFID: "ptr_", PtrToMem: "mem",
}

func (t RegType) String() string {
	if n, ok := regTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("reg_type(%d)", int(t))
}

// IsPointer reports whether the type is any pointer kind.
func (t RegType) IsPointer() bool {
	return t != NotInit && t != Scalar
}

// RegState is the verifier's knowledge about one register. For scalars the
// bound fields and VarOff describe the value itself; for pointers Off is
// the known fixed offset and the bound fields plus VarOff describe the
// *variable* part of the offset, exactly as in the kernel.
type RegState struct {
	Type RegType
	// MaybeNull marks nullable pointers (the _OR_NULL variants).
	MaybeNull bool
	// Precise marks scalars needing exact tracking during backtracking.
	Precise bool
	// Off is the fixed offset added to a pointer.
	Off int32
	// VarOff tracks known/unknown bits of the scalar or variable offset.
	VarOff tnum.Tnum
	// 64-bit range bounds.
	SMin int64
	SMax int64
	UMin uint64
	UMax uint64
	// MapIdx names the referenced map for ConstPtrToMap / PtrToMapValue:
	// its index in the verification's used-map list, the order
	// Result.UsedMaps publishes. An index rather than a *maps.Map keeps
	// RegState, and so every frame, free of pointers: copying a frame is
	// a plain memmove without write barriers, and the garbage collector
	// does not scan pooled frames.
	MapIdx uint32
	// BTF is the pointee type for PtrToBTFID.
	BTF btf.TypeID
	// ID links registers produced by the same nullable source, for
	// null-branch propagation; it also identifies packet pointers.
	ID uint32
	// Range is the number of bytes proven accessible past Off for
	// packet pointers (set by comparisons against pkt_end).
	Range int32
	// MemSize bounds PtrToMem accesses.
	MemSize int32
	// RefObj is the reference id for acquired objects (kfunc acquire).
	RefObj uint32
}

// unknownScalar returns a scalar with no known bits or bounds.
func unknownScalar() RegState {
	return RegState{
		Type:   Scalar,
		VarOff: tnum.Unknown,
		SMin:   math.MinInt64, SMax: math.MaxInt64,
		UMin: 0, UMax: math.MaxUint64,
	}
}

// constScalar returns a scalar known to be exactly v.
func constScalar(v uint64) RegState {
	return RegState{
		Type:   Scalar,
		VarOff: tnum.Const(v),
		SMin:   int64(v), SMax: int64(v),
		UMin: v, UMax: v,
	}
}

// IsConst reports whether the register is a scalar with one known value.
func (r *RegState) IsConst() bool {
	return r.Type == Scalar && r.VarOff.IsConst()
}

// ConstVal returns the scalar's known value (valid only if IsConst).
func (r *RegState) ConstVal() uint64 { return r.VarOff.Value }

// markUnknown resets the register to an unbounded scalar.
func (r *RegState) markUnknown() { *r = unknownScalar() }

// markNotInit invalidates the register.
func (r *RegState) markNotInit() { *r = RegState{Type: NotInit} }

// updateBounds tightens the numeric bounds using VarOff and vice versa,
// following the kernel's __update_reg_bounds / __reg_bound_offset pair.
func (r *RegState) updateBounds() {
	// Bounds from tnum.
	if r.VarOff.Min() > r.UMin {
		r.UMin = r.VarOff.Min()
	}
	if r.VarOff.Max() < r.UMax {
		r.UMax = r.VarOff.Max()
	}
	// Signed bounds from unsigned when the sign bit is known.
	if int64(r.UMin) >= 0 && int64(r.UMax) >= 0 {
		// Entire range non-negative in signed terms.
		if int64(r.UMin) > r.SMin {
			r.SMin = int64(r.UMin)
		}
		if int64(r.UMax) < r.SMax {
			r.SMax = int64(r.UMax)
		}
	} else if int64(r.UMin) < 0 && int64(r.UMax) < 0 {
		// Entire range negative.
		if int64(r.UMin) > r.SMin {
			r.SMin = int64(r.UMin)
		}
		if int64(r.UMax) < r.SMax {
			r.SMax = int64(r.UMax)
		}
	}
	// Unsigned from signed when both non-negative.
	if r.SMin >= 0 {
		if uint64(r.SMin) > r.UMin {
			r.UMin = uint64(r.SMin)
		}
		if uint64(r.SMax) < r.UMax {
			r.UMax = uint64(r.SMax)
		}
	}
	// Tnum from bounds.
	r.VarOff = tnum.Intersect(r.VarOff, tnum.Range(r.UMin, r.UMax))
	// Degenerate ranges collapse to constants.
	if r.UMin == r.UMax {
		r.VarOff = tnum.Const(r.UMin)
		r.SMin, r.SMax = int64(r.UMin), int64(r.UMin)
	}
}

// boundsSane reports whether min <= max in both domains; a violated
// invariant means a branch is impossible.
func (r *RegState) boundsSane() bool {
	return r.SMin <= r.SMax && r.UMin <= r.UMax
}

// setRange replaces the numeric bounds.
func (r *RegState) setRange(smin, smax int64, umin, umax uint64) {
	r.SMin, r.SMax, r.UMin, r.UMax = smin, smax, umin, umax
}

// zeroVar clears the variable-offset tracking of a pointer register so it
// describes "exactly Off".
func (r *RegState) zeroVar() {
	r.VarOff = tnum.Const(0)
	r.SMin, r.SMax, r.UMin, r.UMax = 0, 0, 0, 0
}

// String renders the register in verifier-log style.
func (r *RegState) String() string {
	switch r.Type {
	case NotInit:
		return "?"
	case Scalar:
		if r.IsConst() {
			return fmt.Sprintf("%d", int64(r.ConstVal()))
		}
		return fmt.Sprintf("scalar(umin=%d,umax=%d,smin=%d,smax=%d,var=%v)",
			r.UMin, r.UMax, r.SMin, r.SMax, r.VarOff)
	case PtrToStack:
		return fmt.Sprintf("fp%+d", r.Off)
	case PtrToMapValue:
		null := ""
		if r.MaybeNull {
			null = "_or_null"
		}
		return fmt.Sprintf("map_value%s(off=%d,umax=%d)", null, r.Off, r.UMax)
	case ConstPtrToMap:
		return "map_ptr"
	case PtrToCtx:
		return fmt.Sprintf("ctx%+d", r.Off)
	case PtrToPacket:
		return fmt.Sprintf("pkt(off=%d,r=%d)", r.Off, r.Range)
	case PtrToPacketEnd:
		return "pkt_end"
	case PtrToBTFID:
		null := ""
		if r.MaybeNull {
			null = "_or_null"
		}
		return fmt.Sprintf("ptr_btf%s(id=%d,off=%d)", null, r.BTF, r.Off)
	case PtrToMem:
		return fmt.Sprintf("mem(off=%d,size=%d)", r.Off, r.MemSize)
	}
	return "??"
}

// SlotKind classifies one 8-byte stack slot.
type SlotKind uint8

// Stack slot kinds.
const (
	SlotInvalid SlotKind = iota
	SlotSpill            // holds a spilled register
	SlotMisc             // initialized with unknown bytes
	SlotZero             // initialized with zeros
)

// StackSlot is the verifier's knowledge about one 8-byte stack slot.
type StackSlot struct {
	Kind  SlotKind
	Spill RegState
}

// NumStackSlots is the per-frame slot count (512 bytes / 8).
const NumStackSlots = 64
