package isa

import "fmt"

// InsertAt returns a copy of p with insns inserted before decoded index
// idx, with every jump offset and pseudo-call delta recomputed (the
// kernel's bpf_patch_insn_data). Jumps that previously targeted the
// instruction at idx now target the start of the inserted block, so the
// new code executes on every path that reached the old instruction.
//
// Mutation operators and rewrite passes share this utility; it keeps
// arbitrary insertions validity-preserving.
func InsertAt(p *Program, idx int, insns ...Instruction) (*Program, error) {
	if idx < 0 || idx > len(p.Insns) {
		return nil, fmt.Errorf("isa: insert index %d out of range", idx)
	}
	out := p.header(len(p.Insns) + len(insns))
	out.Insns = append(out.Insns, p.Insns[:idx]...)
	out.Insns = append(out.Insns, insns...)
	out.Insns = append(out.Insns, p.Insns[idx:]...)
	width := 0
	for _, ins := range insns {
		width += slotWidth(ins)
	}
	if err := retarget(p, out, idx, len(insns), width); err != nil {
		return nil, err
	}
	return out, nil
}

// RemoveAt returns a copy of p without the instruction at decoded index
// idx, with every jump offset and pseudo-call delta recomputed. Jumps that
// targeted the removed instruction now land on its successor. Removing an
// instruction can make the program invalid (e.g. dropping the final exit);
// callers should Validate the result.
func RemoveAt(p *Program, idx int) (*Program, error) {
	if idx < 0 || idx >= len(p.Insns) {
		return nil, fmt.Errorf("isa: remove index %d out of range", idx)
	}
	out := p.header(len(p.Insns) - 1)
	out.Insns = append(out.Insns, p.Insns[:idx]...)
	out.Insns = append(out.Insns, p.Insns[idx+1:]...)
	if err := retarget(p, out, idx, -1, -slotWidth(p.Insns[idx])); err != nil {
		return nil, err
	}
	return out, nil
}

// header returns p's type, name, attach point and license with room for
// n instructions.
func (p *Program) header(n int) *Program {
	return &Program{
		Type: p.Type, Name: p.Name,
		AttachTo: p.AttachTo, GPLCompatible: p.GPLCompatible,
		Insns: make([]Instruction, 0, n),
	}
}

// retarget recomputes the jump offsets and pseudo-call deltas in out, the
// copy of p edited at decoded index idx: every instruction from idx on
// moved by dIdx indices and shift slots (a removed instruction, dIdx < 0,
// is not patched). A branch aimed at idx keeps its slot, so it now lands
// on the inserted block or on the removed instruction's successor.
func retarget(p, out *Program, idx, dIdx, shift int) error {
	// start marks the slots where an instruction begins: the only valid
	// branch targets.
	start := make([]bool, p.Slots())
	base := len(start) // slot of idx
	slot := 0
	for i, ins := range p.Insns {
		if i == idx {
			base = slot
		}
		start[slot] = true
		slot += slotWidth(ins)
	}

	slot = 0
	for i, ins := range p.Insns {
		slot += slotWidth(ins)
		if i == idx && dIdx < 0 {
			continue
		}
		var delta int
		switch {
		case ins.IsPseudoCall():
			delta = int(ins.Imm)
		case ins.IsCondJump() || ins.IsUncondJump():
			delta = int(ins.Off)
		default:
			continue
		}
		tgt := slot + delta
		if tgt < 0 || tgt >= len(start) || !start[tgt] {
			return fmt.Errorf("isa: insn %d has unmappable jump target", i)
		}
		newOff, ni := delta, i
		if tgt > base {
			newOff += shift
		}
		if i >= idx {
			newOff -= shift
			ni += dIdx
		}
		if ins.IsPseudoCall() {
			out.Insns[ni].Imm = int32(newOff)
			continue
		}
		if newOff > 32767 || newOff < -32768 {
			return fmt.Errorf("isa: patched jump offset %d overflows", newOff)
		}
		out.Insns[ni].Off = int16(newOff)
	}
	return nil
}

func slotWidth(ins Instruction) int {
	if ins.IsWide() {
		return 2
	}
	return 1
}
