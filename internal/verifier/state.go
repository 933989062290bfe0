package verifier

import (
	"repro/internal/isa"
	"repro/internal/tnum"
)

// FuncState is the per-call-frame state: registers and stack slots.
//
// Only Stack[lo:] is allocated, like the kernel's allocated_stack: the
// stack grows down from the frame pointer as the program writes deeper
// slots, and a slot below lo reads as SlotInvalid whatever Stack still
// holds there, since pooled frames are reused without clearing. Copies,
// initialization, subsumption and null propagation therefore touch only
// the slots the program wrote. A FuncState holds no pointers (RegState
// names its map by index), so copying one is a plain memmove.
type FuncState struct {
	Regs  [isa.NumReg]RegState
	Stack [NumStackSlots]StackSlot
	// FrameNo is this frame's depth (0 = main program).
	FrameNo int
	// CallSite is the instruction index of the call that created this
	// frame (so exit can resume the caller), -1 for the main frame.
	CallSite int
	// lo is the lowest allocated stack slot, NumStackSlots when the
	// frame has written none. The zero value allocates the whole stack,
	// so a zero FuncState reads every slot as its (SlotInvalid) zero.
	lo int
}

// invalidSlot is what a slot below the allocated stack reads as.
var invalidSlot StackSlot

// slotAt returns stack slot s for reading: a slot below the allocated
// stack reads as SlotInvalid. Callers must not write through the result.
func (f *FuncState) slotAt(s int) *StackSlot {
	if s < f.lo {
		return &invalidSlot
	}
	return &f.Stack[s]
}

// allocStack extends the allocated stack down to slot s ahead of a write
// there, clearing the slots it adds, which may hold a pooled frame's
// stale contents.
func (f *FuncState) allocStack(s int) {
	if s < f.lo {
		clear(f.Stack[s:f.lo])
		f.lo = s
	}
}

// init makes f an empty frame: every register NotInit, no stack.
func (f *FuncState) init(frameNo, callSite int) {
	f.Regs = [isa.NumReg]RegState{}
	f.FrameNo, f.CallSite, f.lo = frameNo, callSite, NumStackSlots
}

// copyFrom makes f a copy of src, moving only src's allocated stack.
func (f *FuncState) copyFrom(src *FuncState) {
	f.Regs = src.Regs
	f.FrameNo, f.CallSite, f.lo = src.FrameNo, src.CallSite, src.lo
	copy(f.Stack[src.lo:], src.Stack[src.lo:])
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

// Clone deep-copies the state into fresh frames, whose slots below the
// allocated stack are zero.
func (s *State) Clone() *State {
	n := &State{
		Frames:   make([]*FuncState, len(s.Frames)),
		Refs:     append([]uint32(nil), s.Refs...),
		Insn:     s.Insn,
		Ancestry: append([]uint64(nil), s.Ancestry...),
	}
	for i, f := range s.Frames {
		n.Frames[i] = new(FuncState)
		n.Frames[i].copyFrom(f)
	}
	return n
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
		if old.MapIdx != new.MapIdx || old.Off != new.Off {
			return false
		}
		if new.MaybeNull && !old.MaybeNull {
			return false
		}
		return old.UMin <= new.UMin && new.UMax <= old.UMax &&
			old.SMin <= new.SMin && new.SMax <= old.SMax
	case ConstPtrToMap:
		return old.MapIdx == new.MapIdx
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
		// Below both frames' allocated stacks every slot reads invalid
		// on both sides, which subsumes.
		for s := min(of.lo, nf.lo); s < NumStackSlots; s++ {
			if !slotSubsumes(of.slotAt(s), nf.slotAt(s)) {
				return false
			}
		}
	}
	return true
}
