package core

import (
	"math/rand"

	"repro/internal/isa"
)

// Mutate applies one validity-preserving mutation to a corpus program and
// returns the mutant (the original is never modified). The operators
// mirror §4.1's description: immediate tweaks, and duplication of
// adjacent instructions to simulate unrolled loops.
//
// The in-place operators edit one copy of the parent, made the first
// time one of them is drawn; an edit that leaves the program invalid is
// undone by copying the parent back over it. Duplication builds its own
// program from the parent and needs no copy. Sibling-batch scheduling
// calls Mutate once per sibling against a pinned parent, so a batch of K
// siblings costs at most K copies, not K×attempts.
func Mutate(r *rand.Rand, p *isa.Program) *isa.Program {
	var q *isa.Program
	for attempt := 0; attempt < 4; attempt++ {
		op := r.Intn(4)
		if op == 1 {
			if m, ok := mutateDup(r, p); ok && m.Validate(isa.MaxInsns) == nil {
				return m
			}
			continue
		}
		if q == nil {
			q = p.Clone()
		}
		var ok bool
		switch op {
		case 0:
			ok = mutateImm(r, q)
		case 2:
			ok = mutateStoreValue(r, q)
		case 3:
			ok = mutateAttach(r, q)
		}
		if !ok {
			continue
		}
		if q.Validate(isa.MaxInsns) == nil {
			return q
		}
		// Undo the edit, so the next operator starts from the parent.
		insns := q.Insns
		*q = *p
		q.Insns = insns
		copy(insns, p.Insns)
	}
	if q == nil {
		return p.Clone()
	}
	return q
}

// pick returns the index of the r.Intn(n)-th of p's n instructions that
// satisfy ok, drawing from r only when n > 0; it returns -1 when none
// does.
func pick(r *rand.Rand, p *isa.Program, ok func(*isa.Instruction) bool) int {
	n := 0
	for i := range p.Insns {
		if ok(&p.Insns[i]) {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := r.Intn(n)
	for i := range p.Insns {
		if ok(&p.Insns[i]) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("unreachable")
}

// immTarget: an ALU instruction with an immediate operand, byte swaps
// excluded.
func immTarget(ins *isa.Instruction) bool {
	cls := ins.Class()
	return (cls == isa.ClassALU || cls == isa.ClassALU64) &&
		isa.Src(ins.Opcode) == isa.SrcK && isa.Op(ins.Opcode) != isa.ALUEnd
}

// mutateImm perturbs the immediate of one ALU or store instruction.
func mutateImm(r *rand.Rand, p *isa.Program) bool {
	i := pick(r, p, immTarget)
	if i < 0 {
		return false
	}
	ins := &p.Insns[i]
	switch isa.Op(ins.Opcode) {
	case isa.ALUDiv, isa.ALUMod:
		ins.Imm = int32(1 + r.Intn(1<<16)) // keep nonzero
	case isa.ALULsh, isa.ALURsh, isa.ALUArsh:
		// The maximal shift (63 / 31) must be reachable: boundary
		// immediates are exactly where verifier range-analysis bugs
		// live, so draw from the inclusive range [0, width].
		width := int32(63)
		if ins.Class() == isa.ClassALU {
			width = 31
		}
		ins.Imm = int32(r.Intn(int(width) + 1))
	default:
		switch r.Intn(4) {
		case 0:
			ins.Imm++
		case 1:
			ins.Imm = -ins.Imm
		case 2:
			ins.Imm = int32(r.Uint32())
		default:
			// All 32 bits are flippable, including the sign bit —
			// sign-boundary immediates are prime verifier-bug bait.
			ins.Imm ^= 1 << uint(r.Intn(32))
		}
	}
	return true
}

// dupTarget: an ALU instruction or a non-atomic store.
func dupTarget(ins *isa.Instruction) bool {
	cls := ins.Class()
	return cls == isa.ClassALU || cls == isa.ClassALU64 ||
		((cls == isa.ClassST || cls == isa.ClassSTX) && !ins.IsAtomic())
}

// mutateDup duplicates one non-control-flow instruction in place,
// patching every affected jump — the paper's "simulating unrolled loops
// by duplicating adjacent instructions".
func mutateDup(r *rand.Rand, p *isa.Program) (*isa.Program, bool) {
	i := pick(r, p, dupTarget)
	if i < 0 {
		return p, false
	}
	q, err := isa.InsertAt(p, i, p.Insns[i])
	if err != nil {
		return p, false
	}
	return q, true
}

// storeTarget: a store of an immediate.
func storeTarget(ins *isa.Instruction) bool {
	return ins.Class() == isa.ClassST && isa.Mode(ins.Opcode) == isa.ModeMEM
}

// mutateStoreValue changes the stored immediate of a ST instruction.
func mutateStoreValue(r *rand.Rand, p *isa.Program) bool {
	i := pick(r, p, storeTarget)
	if i < 0 {
		return false
	}
	p.Insns[i].Imm = int32(r.Uint32())
	return true
}

// mutateAttach retargets a tracing program's attach point among the
// ordinary hooks. Restricted hooks (contention_begin, the printk
// tracepoint) are the province of BVF's structured attach selection
// (§4.1); a generic mutator reaching them would hand every corpus-based
// fuzzer the attach-restriction bugs for free.
func mutateAttach(r *rand.Rand, p *isa.Program) bool {
	if p.Type != isa.ProgTypeKprobe && p.Type != isa.ProgTypeTracepoint {
		return false
	}
	targets := []string{"sched_switch", "sys_enter", "kprobe:generic"}
	p.AttachTo = targets[r.Intn(len(targets))]
	return true
}
