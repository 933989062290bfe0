package verifier

import (
	"repro/internal/isa"
	"repro/internal/tnum"
)

// FuncState is the per-call-frame state: registers and stack slots.
type FuncState struct {
	Regs  [isa.NumReg]RegState
	Stack [NumStackSlots]StackSlot
	// FrameNo is this frame's depth (0 = main program).
	FrameNo int
	// CallSite is the instruction index of the call that created this
	// frame (so exit can resume the caller), -1 for the main frame.
	CallSite int
	// SavedRegs are the caller's R6-R9 to restore on exit? The kernel
	// keeps the caller frame intact; we do the same — this field exists
	// only for the main frame's clarity and is unused.
}

// State is one point in the verifier's path exploration: the whole call
// stack plus outstanding references.
type State struct {
	Frames []*FuncState
	// Refs are acquired-but-unreleased reference ids.
	Refs []uint32
	// Insn is the next instruction index to process.
	Insn int
	// Ancestry lists the snapshot ids recorded along this path, so a
	// prune hit against an ancestor snapshot is recognized as a cycle
	// (the kernel's "infinite loop detected" via the branches counter).
	Ancestry []uint64
}

// Cur returns the active (innermost) frame.
func (s *State) Cur() *FuncState { return s.Frames[len(s.Frames)-1] }

// Reg returns a pointer to register r of the active frame.
func (s *State) Reg(r uint8) *RegState { return &s.Cur().Regs[r] }

// Clone deep-copies the state.
func (s *State) Clone() *State {
	n := &State{
		Frames:   make([]*FuncState, len(s.Frames)),
		Refs:     append([]uint32(nil), s.Refs...),
		Insn:     s.Insn,
		Ancestry: append([]uint64(nil), s.Ancestry...),
	}
	for i, f := range s.Frames {
		cp := *f
		n.Frames[i] = &cp
	}
	return n
}

// newInitialState builds the entry state for a program of the given type:
// R1 = ctx pointer, R10 = frame pointer, everything else uninitialized.
func newInitialState() *State {
	f := &FuncState{FrameNo: 0, CallSite: -1}
	for i := range f.Regs {
		f.Regs[i] = RegState{Type: NotInit}
	}
	f.Regs[isa.R1] = RegState{Type: PtrToCtx, VarOff: tnum.Const(0)}
	f.Regs[isa.R10] = RegState{Type: PtrToStack, VarOff: tnum.Const(0)}
	return &State{Frames: []*FuncState{f}, Insn: 0}
}

// regSubsumes reports whether knowledge `old` is general enough to cover
// `new`: every concrete execution admitted by new is admitted by old. Used
// for state pruning — if an already-explored state subsumes the new one,
// exploring again cannot find new behaviour.
func regSubsumes(old, new *RegState) bool {
	if old.Type == NotInit {
		// Old accepted anything for this register (it never read it
		// further along the path) — conservative: require new also
		// not-init to keep the check simple and sound.
		return new.Type == NotInit
	}
	if old.Type != new.Type {
		return false
	}
	switch old.Type {
	case Scalar:
		return old.SMin <= new.SMin && new.SMax <= old.SMax &&
			old.UMin <= new.UMin && new.UMax <= old.UMax &&
			tnum.In(new.VarOff, old.VarOff)
	case PtrToStack, PtrToCtx:
		return old.Off == new.Off
	case PtrToMapValue:
		if old.Map != new.Map || old.Off != new.Off {
			return false
		}
		if new.MaybeNull && !old.MaybeNull {
			return false
		}
		return old.UMin <= new.UMin && new.UMax <= old.UMax &&
			old.SMin <= new.SMin && new.SMax <= old.SMax
	case ConstPtrToMap:
		return old.Map == new.Map
	case PtrToPacket:
		// Old must not promise more validated range than new has.
		return old.Off == new.Off && old.Range <= new.Range
	case PtrToPacketEnd:
		return true
	case PtrToBTFID:
		if old.BTF != new.BTF || old.Off != new.Off {
			return false
		}
		return !new.MaybeNull || old.MaybeNull
	case PtrToMem:
		return old.Off == new.Off && old.MemSize == new.MemSize &&
			(!new.MaybeNull || old.MaybeNull)
	}
	return false
}

func slotSubsumes(old, new *StackSlot) bool {
	switch old.Kind {
	case SlotInvalid:
		// Old never relied on this slot being initialized; any new
		// content is fine only if also invalid (conservative).
		return new.Kind == SlotInvalid
	case SlotMisc:
		return new.Kind == SlotMisc || new.Kind == SlotZero || new.Kind == SlotSpill
	case SlotZero:
		return new.Kind == SlotZero
	case SlotSpill:
		if new.Kind != SlotSpill {
			return false
		}
		return regSubsumes(&old.Spill, &new.Spill)
	}
	return false
}

// stateSubsumes reports whether old covers new for pruning purposes.
func stateSubsumes(old, new *State) bool {
	if len(old.Frames) != len(new.Frames) {
		return false
	}
	if len(old.Refs) != len(new.Refs) {
		return false
	}
	for fi := range old.Frames {
		of, nf := old.Frames[fi], new.Frames[fi]
		if of.CallSite != nf.CallSite {
			return false
		}
		for r := 0; r < isa.NumReg; r++ {
			if !regSubsumes(&of.Regs[r], &nf.Regs[r]) {
				return false
			}
		}
		for s := 0; s < NumStackSlots; s++ {
			if !slotSubsumes(&of.Stack[s], &nf.Stack[s]) {
				return false
			}
		}
	}
	return true
}
