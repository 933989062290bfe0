package verifier

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/tnum"
)

// refStateSubsumes is the full-frame stateSubsumes that the allocated
// stack replaced: it compares all NumStackSlots slots of every frame.
// On frames whose slots below the allocated stack are zero, which
// State.Clone guarantees, the two must agree; checkSubsumesFingerprint
// requires that on every pair of explored states.
func refStateSubsumes(old, new *State) bool {
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

// TestFrameStaleSlotsReadInvalid: a pooled frame keeps whatever its last
// user left in Stack. Slots below the allocated stack must read as
// SlotInvalid, subsume as invalid slots do, and not be copied, and the
// slots a deeper write allocates must start invalid.
func TestFrameStaleSlotsReadInvalid(t *testing.T) {
	spill := StackSlot{Kind: SlotSpill, Spill: RegState{Type: PtrToCtx, VarOff: tnum.Const(0)}}
	stale := new(FuncState)
	for s := range stale.Stack {
		stale.Stack[s] = spill
	}
	stale.init(0, -1)
	for s := 0; s < NumStackSlots; s++ {
		if k := stale.slotAt(s).Kind; k != SlotInvalid {
			t.Fatalf("slot %d of an initialized pooled frame reads kind %d, want SlotInvalid", s, k)
		}
	}
	// A write to slot 60 allocates slots 60..63: the three above it
	// held stale spills and must read invalid.
	stale.allocStack(60)
	stale.Stack[60] = StackSlot{Kind: SlotMisc}
	for s := 0; s < NumStackSlots; s++ {
		want := SlotInvalid
		if s == 60 {
			want = SlotMisc
		}
		if k := stale.slotAt(s).Kind; k != want {
			t.Fatalf("after the write to slot 60, slot %d reads kind %d, want %d", s, k, want)
		}
	}

	// The same frame built from zero, and one that also allocated (but
	// never wrote) slots down to 50, subsume the stale frame both ways.
	clean := new(FuncState)
	clean.init(0, -1)
	clean.allocStack(60)
	clean.Stack[60] = StackSlot{Kind: SlotMisc}
	deeper := clean.clone()
	deeper.allocStack(50)
	// A spill at slot 40 that only one side holds blocks subsumption
	// both ways, although the stale frame's Stack[40] holds a spill too.
	spilled := clean.clone()
	spilled.allocStack(40)
	spilled.Stack[40] = spill
	frames := map[string]*FuncState{"stale": stale, "clean": clean, "deeper": deeper, "spilled": spilled}
	for on, of := range frames {
		for nn, nf := range frames {
			old, new := &State{Frames: []*FuncState{of}}, &State{Frames: []*FuncState{nf}}
			want := (on == "spilled") == (nn == "spilled")
			if got := stateSubsumes(old, new); got != want {
				t.Errorf("stateSubsumes(%s, %s) = %v, want %v", on, nn, got, want)
			}
			if ref := refStateSubsumes(old.Clone(), new.Clone()); ref != want {
				t.Errorf("refStateSubsumes on clones of (%s, %s) = %v, want %v", on, nn, ref, want)
			}
		}
	}

	// copyFrom moves only the allocated stack.
	marker := StackSlot{Kind: SlotZero}
	dst := new(FuncState)
	for s := range dst.Stack {
		dst.Stack[s] = marker
	}
	dst.copyFrom(stale)
	for s := 0; s < NumStackSlots; s++ {
		switch {
		case s < 60 && dst.Stack[s] != marker:
			t.Fatalf("slot %d below the allocated stack was copied", s)
		case s >= 60 && dst.Stack[s] != stale.Stack[s]:
			t.Fatalf("allocated slot %d not copied", s)
		case dst.slotAt(s).Kind != stale.slotAt(s).Kind:
			t.Fatalf("copy reads slot %d as kind %d, source %d", s, dst.slotAt(s).Kind, stale.slotAt(s).Kind)
		}
	}
}

// clone returns a fresh copy of f.
func (f *FuncState) clone() *FuncState {
	c := new(FuncState)
	c.copyFrom(f)
	return c
}

// TestPooledFrameStaleSpillsRejected runs the frame pool end to end: a
// program that spills a pointer into every stack slot leaves pooled
// frames full of spills, and each following program that reads a slot
// it never wrote, in the main frame, above a deeper write, or in a
// bpf-to-bpf callee frame, must still be rejected as an uninitialized
// stack read.
func TestPooledFrameStaleSpillsRejected(t *testing.T) {
	cfg := newTestKernel(t).config(nil)
	var spillAll []isa.Instruction
	for off := -8; off >= -isa.StackSize; off -= 8 {
		spillAll = append(spillAll, isa.StoreMem(isa.SizeDW, isa.R10, isa.R1, int16(off)))
	}
	spillAll = append(spillAll, isa.Mov64Imm(isa.R0, 0), isa.Exit())
	readers := map[string][]isa.Instruction{
		"main frame": {
			isa.LoadMem(isa.SizeDW, isa.R2, isa.R10, -isa.StackSize),
			isa.Mov64Imm(isa.R0, 0), isa.Exit(),
		},
		"above a deeper write": {
			isa.StoreMem(isa.SizeDW, isa.R10, isa.R1, -24),
			isa.LoadMem(isa.SizeDW, isa.R2, isa.R10, -16),
			isa.Mov64Imm(isa.R0, 0), isa.Exit(),
		},
		"callee frame": {
			isa.CallPseudo(2),
			isa.Mov64Imm(isa.R0, 0), isa.Exit(),
			isa.LoadMem(isa.SizeDW, isa.R2, isa.R10, -8),
			isa.Mov64Imm(isa.R0, 0), isa.Exit(),
		},
	}
	for round := 0; round < 20; round++ {
		for name, insns := range readers {
			spiller := &isa.Program{Type: isa.ProgTypeSocketFilter, Insns: spillAll}
			if _, err := Verify(spiller, cfg); err != nil {
				t.Fatalf("spilling program rejected: %v", err)
			}
			_, err := Verify(&isa.Program{Type: isa.ProgTypeSocketFilter, Insns: insns}, cfg)
			var ve *Error
			if !errors.As(err, &ve) || !strings.Contains(ve.Message(), "uninitialized") {
				t.Fatalf("round %d, %s: Verify = %v, want an invalid stack read", round, name, err)
			}
		}
	}
}
