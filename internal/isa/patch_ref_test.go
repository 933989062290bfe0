package isa

import (
	"fmt"
	"math/rand"
	"testing"
)

// The map-based InsertAt and RemoveAt this package shipped before they
// became linear-time, kept as the reference the differential test
// compares the current pair against: same programs, same errors.

// insertAtRef is the reference InsertAt.
func insertAtRef(p *Program, idx int, insns ...Instruction) (*Program, error) {
	if idx < 0 || idx > len(p.Insns) {
		return nil, fmt.Errorf("isa: insert index %d out of range", idx)
	}
	out := &Program{
		Type: p.Type, Name: p.Name,
		AttachTo: p.AttachTo, GPLCompatible: p.GPLCompatible,
	}
	newIdx := make([]int, len(p.Insns)) // orig -> new decoded index
	for i, ins := range p.Insns {
		if i == idx {
			out.Insns = append(out.Insns, insns...)
		}
		newIdx[i] = len(out.Insns)
		out.Insns = append(out.Insns, ins)
	}
	if idx == len(p.Insns) {
		out.Insns = append(out.Insns, insns...)
	}

	// Slot tables before and after.
	oldSlot := make([]int, len(p.Insns)+1)
	for i, ins := range p.Insns {
		oldSlot[i+1] = oldSlot[i] + slotWidth(ins)
	}
	oldIdxOfSlot := make(map[int]int, len(p.Insns))
	for i := range p.Insns {
		oldIdxOfSlot[oldSlot[i]] = i
	}
	newSlot := make([]int, len(out.Insns)+1)
	for i, ins := range out.Insns {
		newSlot[i+1] = newSlot[i] + slotWidth(ins)
	}
	// blockStart: where jumps to orig insn j should now land. For j ==
	// idx that is the first inserted instruction.
	blockStart := func(j int) int {
		n := newIdx[j]
		if j == idx {
			n -= len(insns)
		}
		return n
	}

	for i, ins := range p.Insns {
		isJump := ins.IsCondJump() || ins.IsUncondJump()
		if !isJump && !ins.IsPseudoCall() {
			continue
		}
		var delta int32
		if ins.IsPseudoCall() {
			delta = ins.Imm
		} else {
			delta = int32(ins.Off)
		}
		tgt, ok := oldIdxOfSlot[oldSlot[i]+slotWidth(ins)+int(delta)]
		if !ok {
			return nil, fmt.Errorf("isa: insn %d has unmappable jump target", i)
		}
		ni := newIdx[i]
		newOff := newSlot[blockStart(tgt)] - (newSlot[ni] + slotWidth(out.Insns[ni]))
		if ins.IsPseudoCall() {
			out.Insns[ni].Imm = int32(newOff)
		} else {
			if newOff > 32767 || newOff < -32768 {
				return nil, fmt.Errorf("isa: patched jump offset %d overflows", newOff)
			}
			out.Insns[ni].Off = int16(newOff)
		}
	}
	return out, nil
}

// removeAtRef is the reference RemoveAt.
func removeAtRef(p *Program, idx int) (*Program, error) {
	if idx < 0 || idx >= len(p.Insns) {
		return nil, fmt.Errorf("isa: remove index %d out of range", idx)
	}
	out := &Program{
		Type: p.Type, Name: p.Name,
		AttachTo: p.AttachTo, GPLCompatible: p.GPLCompatible,
	}
	newIdx := make([]int, len(p.Insns))
	for i, ins := range p.Insns {
		if i == idx {
			newIdx[i] = len(out.Insns) // successor position
			continue
		}
		newIdx[i] = len(out.Insns)
		out.Insns = append(out.Insns, ins)
	}

	oldSlot := make([]int, len(p.Insns)+1)
	for i, ins := range p.Insns {
		oldSlot[i+1] = oldSlot[i] + slotWidth(ins)
	}
	oldIdxOfSlot := make(map[int]int, len(p.Insns))
	for i := range p.Insns {
		oldIdxOfSlot[oldSlot[i]] = i
	}
	newSlot := make([]int, len(out.Insns)+1)
	for i, ins := range out.Insns {
		newSlot[i+1] = newSlot[i] + slotWidth(ins)
	}
	slotOfNew := func(j int) int {
		if j >= len(out.Insns) {
			return newSlot[len(out.Insns)]
		}
		return newSlot[j]
	}

	for i, ins := range p.Insns {
		if i == idx {
			continue
		}
		isJump := ins.IsCondJump() || ins.IsUncondJump()
		if !isJump && !ins.IsPseudoCall() {
			continue
		}
		var delta int32
		if ins.IsPseudoCall() {
			delta = ins.Imm
		} else {
			delta = int32(ins.Off)
		}
		tgt, ok := oldIdxOfSlot[oldSlot[i]+slotWidth(ins)+int(delta)]
		if !ok {
			return nil, fmt.Errorf("isa: insn %d has unmappable jump target", i)
		}
		ni := newIdx[i]
		newOff := slotOfNew(newIdx[tgt]) - (newSlot[ni] + slotWidth(out.Insns[ni]))
		if ins.IsPseudoCall() {
			out.Insns[ni].Imm = int32(newOff)
		} else {
			if newOff > 32767 || newOff < -32768 {
				return nil, fmt.Errorf("isa: patched jump offset %d overflows", newOff)
			}
			out.Insns[ni].Off = int16(newOff)
		}
	}
	return out, nil
}

// randPatchProgram builds a random program of n instructions: plain ALU,
// wide loads, exits, helper calls, and branches (conditional, both
// unconditional forms, bpf-to-bpf calls) whose slot delta usually aims
// at an instruction start and sometimes anywhere near the program, the
// second half of a wide load included.
func randPatchProgram(r *rand.Rand, n int) *Program {
	p := &Program{Type: ProgTypeXDP, Name: "diff", AttachTo: "hook", GPLCompatible: r.Intn(2) == 0}
	for i := 0; i < n; i++ {
		var ins Instruction
		switch r.Intn(9) {
		case 0:
			ins = LoadImm64(uint8(r.Intn(10)), r.Uint64())
		case 1:
			ins = Exit()
		case 2:
			ins = Call(int32(r.Intn(10)))
		case 3:
			ins = JumpImm(JEQ, uint8(r.Intn(10)), int32(r.Intn(4)), 0)
		case 4:
			ins = JumpA(0)
		case 5:
			ins = Instruction{Opcode: ClassJMP32 | JA}
		case 6:
			ins = CallPseudo(0)
		default:
			ins = Mov64Imm(uint8(r.Intn(10)), int32(r.Intn(100)))
		}
		p.Insns = append(p.Insns, ins)
	}
	starts := make([]int, 0, n)
	slot := 0
	for _, ins := range p.Insns {
		starts = append(starts, slot)
		slot += slotWidth(ins)
	}
	end := 0
	for i := range p.Insns {
		ins := &p.Insns[i]
		end += slotWidth(*ins)
		tgt := r.Intn(slot+8) - 4
		if r.Intn(4) != 0 {
			tgt = starts[r.Intn(n)]
		}
		switch {
		case ins.IsPseudoCall():
			ins.Imm = int32(tgt - end)
		case ins.IsCondJump() || ins.IsUncondJump():
			ins.Off = int16(tgt - end)
		}
	}
	return p
}

// samePatch compares two InsertAt/RemoveAt outcomes: the same error text,
// or the same header and instructions.
func samePatch(a *Program, aerr error, b *Program, berr error) string {
	if (aerr == nil) != (berr == nil) || aerr != nil && aerr.Error() != berr.Error() {
		return fmt.Sprintf("errors differ: %v vs %v", aerr, berr)
	}
	if aerr != nil {
		return ""
	}
	if a.Type != b.Type || a.Name != b.Name || a.AttachTo != b.AttachTo ||
		a.GPLCompatible != b.GPLCompatible || len(a.Insns) != len(b.Insns) {
		return fmt.Sprintf("headers differ: %+v vs %+v", *a, *b)
	}
	for i := range a.Insns {
		if a.Insns[i] != b.Insns[i] {
			return fmt.Sprintf("insn %d: %v vs %v", i, a.Insns[i], b.Insns[i])
		}
	}
	return ""
}

// TestPatchMatchesReference: on random programs with wide loads, jumps
// and pseudo-calls, some aimed at no instruction start, InsertAt and
// RemoveAt return exactly what the map-based reference returns, errors
// included, at every index from one before the program to one past it.
func TestPatchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	for c := 0; c < cases; c++ {
		p := randPatchProgram(r, r.Intn(24))
		idx := r.Intn(len(p.Insns)+3) - 1
		block := randPatchProgram(r, r.Intn(4)).Insns
		got, gerr := InsertAt(p, idx, block...)
		want, werr := insertAtRef(p, idx, block...)
		if d := samePatch(got, gerr, want, werr); d != "" {
			t.Fatalf("InsertAt(%v, %d, %v): %s", p.Insns, idx, block, d)
		}
		got, gerr = RemoveAt(p, idx)
		want, werr = removeAtRef(p, idx)
		if d := samePatch(got, gerr, want, werr); d != "" {
			t.Fatalf("RemoveAt(%v, %d): %s", p.Insns, idx, d)
		}
	}
}

// TestInsertAtOverflowMatchesReference: stretching a jump past the int16
// offset range fails with the reference's error.
func TestInsertAtOverflowMatchesReference(t *testing.T) {
	p := &Program{Insns: []Instruction{JumpImm(JEQ, R0, 0, 32767)}}
	for i := 0; i < 32767; i++ {
		p.Insns = append(p.Insns, Mov64Imm(R0, 0))
	}
	p.Insns = append(p.Insns, Exit())
	got, gerr := InsertAt(p, 5, Mov64Imm(R1, 1))
	want, werr := insertAtRef(p, 5, Mov64Imm(R1, 1))
	if gerr == nil {
		t.Fatal("overflowing insert accepted")
	}
	if d := samePatch(got, gerr, want, werr); d != "" {
		t.Fatal(d)
	}
}
