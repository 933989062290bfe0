package verifier

import (
	"math"

	"repro/internal/bugs"
	"repro/internal/isa"
	"repro/internal/tnum"
)

// branchOutcome is the static feasibility of a conditional jump.
type branchOutcome int

const (
	branchUnknown branchOutcome = iota // both directions possible
	branchAlwaysTaken
	branchNeverTaken
)

// checkJmp processes one JMP/JMP32-class instruction. It returns
// done=true when the current path ends (exit from the main frame or a
// prune hit), plus the taken-branch sibling state to explore, if any.
func (e *env) checkJmp(st *State, i int, ins isa.Instruction) (bool, *State, error) {
	op := isa.Op(ins.Opcode)
	switch op {
	case isa.EXIT:
		return e.checkExit(st, i)
	case isa.CALL:
		if err := e.checkCall(st, i, ins); err != nil {
			return false, nil, err
		}
		return false, nil, nil
	case isa.JA:
		e.covs(siteJmpJA)
		tgt := e.jumpTarget(i, int32(ins.Off))
		if tgt < 0 {
			return false, nil, e.reject(i, EINVAL, "jump out of range")
		}
		pruned, perr := e.pruneOrRecord(tgt, st)
		if perr != nil {
			return false, nil, perr
		}
		if pruned {
			return true, nil, nil
		}
		st.Insn = tgt
		return false, nil, nil
	}

	// Conditional jump.
	pruned, perr := e.pruneOrRecord(i, st)
	if perr != nil {
		return false, nil, perr
	}
	if pruned {
		return true, nil, nil
	}
	if err := e.checkRegRead(st, i, ins.Dst); err != nil {
		return false, nil, err
	}
	var src RegState
	isReg := isa.Src(ins.Opcode) == isa.SrcX
	if isReg {
		if err := e.checkRegRead(st, i, ins.Src); err != nil {
			return false, nil, err
		}
		src = *st.Reg(ins.Src)
	} else {
		src = constScalar(uint64(int64(ins.Imm)))
	}
	dst := *st.Reg(ins.Dst)
	is32 := ins.Class() == isa.ClassJMP32

	tgt := e.jumpTarget(i, int32(ins.Off))
	if tgt < 0 {
		return false, nil, e.reject(i, EINVAL, "jump out of range")
	}

	outcome := e.branchFeasibility(op, &dst, &src, is32)
	e.covs(jmpOutcomeSites[op][outcome])

	switch outcome {
	case branchAlwaysTaken:
		st.Insn = tgt
		return false, nil, nil
	case branchNeverTaken:
		st.Insn = i + 1
		return false, nil, nil
	}

	// Both branches feasible: clone for the taken path, refine both.
	taken := e.cloneState(st)
	taken.Insn = tgt
	st.Insn = i + 1

	okTaken := e.refineBranch(taken, i, ins, true, is32, isReg)
	okFall := e.refineBranch(st, i, ins, false, is32, isReg)

	if okTaken && okFall {
		return false, taken, nil
	}
	if okTaken && !okFall {
		// Only the taken path is live: move its contents into the
		// worklist's state and recycle the clone's shell.
		e.adoptState(st, taken)
		return false, nil, nil
	}
	e.releaseState(taken)
	if !okTaken && !okFall {
		// Both branches produced impossible states: the comparison
		// itself was infeasible; treat as fall-through with no
		// refinement (sound, conservative).
		e.covs(siteJmpInfeasible)
		st.Insn = i + 1
		return false, nil, nil
	}
	return false, nil, nil
}

func outcomeName(o branchOutcome) string {
	switch o {
	case branchAlwaysTaken:
		return "always"
	case branchNeverTaken:
		return "never"
	}
	return "both"
}

var jmpOpNames = map[uint8]string{
	isa.JEQ: "jeq", isa.JNE: "jne", isa.JGT: "jgt", isa.JGE: "jge",
	isa.JLT: "jlt", isa.JLE: "jle", isa.JSGT: "jsgt", isa.JSGE: "jsge",
	isa.JSLT: "jslt", isa.JSLE: "jsle", isa.JSET: "jset", isa.JA: "ja",
}

func jmpOpName(op uint8) string {
	if n, ok := jmpOpNames[op]; ok {
		return n
	}
	return "?"
}

// branchFeasibility implements is_branch_taken over the abstract values.
func (e *env) branchFeasibility(op uint8, dst, src *RegState, is32 bool) branchOutcome {
	if dst.Type.IsPointer() || src.Type.IsPointer() {
		// A non-null pointer compared against zero is decided.
		ptr, other := dst, src
		if src.Type.IsPointer() && !dst.Type.IsPointer() {
			ptr, other = src, dst
		}
		if other.Type == Scalar && other.IsConst() && other.ConstVal() == 0 &&
			!ptr.MaybeNull && ptr.Type != PtrToBTFID {
			// Real pointers are never zero... except trusted BTF
			// pointers, which the verifier must not assume about.
			switch op {
			case isa.JEQ:
				return branchNeverTaken
			case isa.JNE:
				return branchAlwaysTaken
			}
		}
		return branchUnknown
	}
	d, s := *dst, *src
	if is32 {
		truncate32(&d)
		truncate32(&s)
		// truncate32 produces unsigned-interpreted bounds; signed
		// 32-bit comparisons need sign-aware bounds, which only exist
		// when the value's 32-bit range does not straddle the sign
		// boundary.
		switch op {
		case isa.JSGT, isa.JSGE, isa.JSLT, isa.JSLE:
			dlo, dhi, dok := s32Bounds(&d)
			slo, shi, sok := s32Bounds(&s)
			if !dok || !sok {
				return branchUnknown
			}
			d.SMin, d.SMax = dlo, dhi
			s.SMin, s.SMax = slo, shi
		}
	}
	switch op {
	case isa.JEQ:
		if d.IsConst() && s.IsConst() {
			if d.ConstVal() == s.ConstVal() {
				return branchAlwaysTaken
			}
			return branchNeverTaken
		}
		if d.UMax < s.UMin || d.UMin > s.UMax {
			return branchNeverTaken
		}
	case isa.JNE:
		if d.IsConst() && s.IsConst() {
			if d.ConstVal() != s.ConstVal() {
				return branchAlwaysTaken
			}
			return branchNeverTaken
		}
		if d.UMax < s.UMin || d.UMin > s.UMax {
			return branchAlwaysTaken
		}
	case isa.JGT:
		if d.UMin > s.UMax {
			return branchAlwaysTaken
		}
		if d.UMax <= s.UMin {
			return branchNeverTaken
		}
	case isa.JGE:
		if d.UMin >= s.UMax {
			return branchAlwaysTaken
		}
		if d.UMax < s.UMin {
			return branchNeverTaken
		}
	case isa.JLT:
		if d.UMax < s.UMin {
			return branchAlwaysTaken
		}
		if d.UMin >= s.UMax {
			return branchNeverTaken
		}
	case isa.JLE:
		if d.UMax <= s.UMin {
			return branchAlwaysTaken
		}
		if d.UMin > s.UMax {
			return branchNeverTaken
		}
	case isa.JSGT:
		if d.SMin > s.SMax {
			return branchAlwaysTaken
		}
		if d.SMax <= s.SMin {
			return branchNeverTaken
		}
	case isa.JSGE:
		if d.SMin >= s.SMax {
			return branchAlwaysTaken
		}
		if d.SMax < s.SMin {
			return branchNeverTaken
		}
	case isa.JSLT:
		if d.SMax < s.SMin {
			return branchAlwaysTaken
		}
		if d.SMin >= s.SMax {
			return branchNeverTaken
		}
	case isa.JSLE:
		if d.SMax <= s.SMin {
			return branchAlwaysTaken
		}
		if d.SMin > s.SMax {
			return branchNeverTaken
		}
	case isa.JSET:
		if s.IsConst() {
			c := s.ConstVal()
			if d.VarOff.Value&c != 0 {
				return branchAlwaysTaken
			}
			if (d.VarOff.Value|d.VarOff.Mask)&c == 0 {
				return branchNeverTaken
			}
		}
	}
	return branchUnknown
}

// s32Bounds returns the signed-32-bit bounds of a truncated scalar, valid
// only when its unsigned 32-bit range stays on one side of the sign
// boundary (so the unsigned-to-signed mapping is monotonic).
func s32Bounds(r *RegState) (lo, hi int64, ok bool) {
	if r.UMax <= 0x7fffffff {
		return int64(r.UMin), int64(r.UMax), true
	}
	if r.UMin >= 0x80000000 && r.UMax <= 0xffffffff {
		return int64(int32(uint32(r.UMin))), int64(int32(uint32(r.UMax))), true
	}
	return 0, 0, false
}

// refineBranch applies the knowledge gained by taking (or not taking) the
// branch to the state. It returns false if the refined state is
// impossible (contradictory bounds), meaning this branch cannot happen.
func (e *env) refineBranch(st *State, i int, ins isa.Instruction, taken bool, is32, isReg bool) bool {
	op := isa.Op(ins.Opcode)
	dst := st.Reg(ins.Dst)
	var src *RegState
	var imm RegState
	if isReg {
		src = st.Reg(ins.Src)
	} else {
		imm = constScalar(uint64(int64(ins.Imm)))
		src = &imm
	}

	// Pointer comparisons: nullness marking and packet ranges.
	if dst.Type.IsPointer() || src.Type.IsPointer() {
		e.refinePointerBranch(st, op, ins, dst, src, taken)
		return true
	}

	if is32 {
		// 32-bit comparisons: refine only when the operands' upper
		// halves are known zero, so 64-bit bounds remain sound.
		if dst.VarOff.Mask>>32 != 0 || dst.VarOff.Value>>32 != 0 ||
			src.VarOff.Mask>>32 != 0 || src.VarOff.Value>>32 != 0 {
			return true
		}
		// Signed 32-bit semantics match 64-bit only while both values
		// stay below the 32-bit sign boundary.
		switch op {
		case isa.JSGT, isa.JSGE, isa.JSLT, isa.JSLE:
			if dst.UMax > 0x7fffffff || src.UMax > 0x7fffffff {
				return true
			}
		}
	}

	// Map the not-taken refinement to the inverse operation.
	effOp := op
	if !taken {
		effOp = inverseJmpOp(op)
	}
	refineScalars(effOp, dst, src)
	dst.updateBounds()
	src.updateBounds()
	if !dst.boundsSane() || !src.boundsSane() {
		return false
	}
	return true
}

// inverseJmpOp returns the operation describing the fall-through edge.
func inverseJmpOp(op uint8) uint8 {
	switch op {
	case isa.JEQ:
		return isa.JNE
	case isa.JNE:
		return isa.JEQ
	case isa.JGT:
		return isa.JLE
	case isa.JGE:
		return isa.JLT
	case isa.JLT:
		return isa.JGE
	case isa.JLE:
		return isa.JGT
	case isa.JSGT:
		return isa.JSLE
	case isa.JSGE:
		return isa.JSLT
	case isa.JSLT:
		return isa.JSGE
	case isa.JSLE:
		return isa.JSGT
	}
	return 0xff // JSET and others: no simple inverse
}

// refineScalars tightens dst and src knowing "dst op src" holds, following
// reg_set_min_max / reg_set_min_max_inv.
func refineScalars(op uint8, dst, src *RegState) {
	switch op {
	case isa.JEQ:
		// Both sides equal: intersect everything.
		umin := maxU(dst.UMin, src.UMin)
		umax := minU(dst.UMax, src.UMax)
		smin := maxS(dst.SMin, src.SMin)
		smax := minS(dst.SMax, src.SMax)
		vo := tnum.Intersect(dst.VarOff, src.VarOff)
		dst.setRange(smin, smax, umin, umax)
		src.setRange(smin, smax, umin, umax)
		dst.VarOff, src.VarOff = vo, vo
	case isa.JNE:
		// Trim touching endpoints only.
		if src.IsConst() {
			c := src.ConstVal()
			if dst.UMin == c && dst.UMin < math.MaxUint64 {
				dst.UMin++
			}
			if dst.UMax == c && dst.UMax > 0 {
				dst.UMax--
			}
			if dst.SMin == int64(c) && dst.SMin < math.MaxInt64 {
				dst.SMin++
			}
			if dst.SMax == int64(c) && dst.SMax > math.MinInt64 {
				dst.SMax--
			}
		}
	case isa.JGT:
		if src.UMin != math.MaxUint64 {
			dst.UMin = maxU(dst.UMin, src.UMin+1)
		}
		if dst.UMax > 0 {
			src.UMax = minU(src.UMax, dst.UMax-1)
		}
	case isa.JGE:
		dst.UMin = maxU(dst.UMin, src.UMin)
		src.UMax = minU(src.UMax, dst.UMax)
	case isa.JLT:
		if src.UMax > 0 {
			dst.UMax = minU(dst.UMax, src.UMax-1)
		}
		if dst.UMin != math.MaxUint64 {
			src.UMin = maxU(src.UMin, dst.UMin+1)
		}
	case isa.JLE:
		dst.UMax = minU(dst.UMax, src.UMax)
		src.UMin = maxU(src.UMin, dst.UMin)
	case isa.JSGT:
		if src.SMin != math.MaxInt64 {
			dst.SMin = maxS(dst.SMin, src.SMin+1)
		}
		if dst.SMax != math.MinInt64 {
			src.SMax = minS(src.SMax, dst.SMax-1)
		}
	case isa.JSGE:
		dst.SMin = maxS(dst.SMin, src.SMin)
		src.SMax = minS(src.SMax, dst.SMax)
	case isa.JSLT:
		if src.SMax != math.MinInt64 {
			dst.SMax = minS(dst.SMax, src.SMax-1)
		}
		if dst.SMin != math.MaxInt64 {
			src.SMin = maxS(src.SMin, dst.SMin+1)
		}
	case isa.JSLE:
		dst.SMax = minS(dst.SMax, src.SMax)
		src.SMin = maxS(src.SMin, dst.SMin)
	case isa.JSET:
		// Taken edge: at least one of the bits is set — no simple
		// interval refinement.
	case 0xff:
		// JSET fall-through: (dst & src)==0, so for constant src all
		// those bits are known zero.
		if src.IsConst() {
			c := src.ConstVal()
			dst.VarOff = tnum.And(dst.VarOff, tnum.Const(^c))
		}
	}
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
func maxS(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
func minS(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// refinePointerBranch handles comparisons involving pointers: null-branch
// marking, pointer-equality nullness propagation (with the Bug #1 knob),
// and packet range discovery.
func (e *env) refinePointerBranch(st *State, op uint8, ins isa.Instruction, dst, src *RegState, taken bool) {
	// Case 1: nullable pointer vs zero.
	zeroSide := func(r *RegState) bool {
		return r.Type == Scalar && r.IsConst() && r.ConstVal() == 0
	}
	if dst.MaybeNull && zeroSide(src) && (op == isa.JEQ || op == isa.JNE) {
		isNullBranch := (op == isa.JEQ && taken) || (op == isa.JNE && !taken)
		e.markPtrOrNullRegs(st, dst.ID, isNullBranch)
		e.cov("jmp:null_check")
		return
	}

	// Case 2: packet pointer vs packet end.
	if e.refinePacketBranch(st, op, dst, src, taken) {
		e.cov("jmp:pkt_range")
		return
	}

	// Case 3: pointer-equality nullness propagation (the feature whose
	// incomplete filter is Bug #1). For reg-reg JEQ/JNE where one side
	// is nullable and the other is a pointer the verifier considers
	// non-null, the equal edge marks the nullable side non-null.
	if op != isa.JEQ && op != isa.JNE {
		return
	}
	eqEdge := (op == isa.JEQ && taken) || (op == isa.JNE && !taken)
	if !eqEdge {
		return
	}
	nullable, other := dst, src
	if !nullable.MaybeNull {
		nullable, other = src, dst
	}
	if !nullable.MaybeNull || !other.Type.IsPointer() || other.MaybeNull {
		return
	}
	// The fix filters out PTR_TO_BTF_ID, whose "non-null" typing is a
	// trust property, not a value property.
	if !e.cfg.Bugs.Has(bugs.Bug1NullnessProp) &&
		(other.Type == PtrToBTFID || nullable.Type == PtrToBTFID) {
		e.cov("jmp:nullprop_filtered")
		return
	}
	if other.Type == PtrToBTFID {
		e.cov("jmp:nullprop_bug1")
	} else {
		e.cov("jmp:nullprop")
	}
	e.markPtrOrNullRegs(st, nullable.ID, false)
}

// markPtrOrNullRegs implements mark_ptr_or_null_regs: every register
// sharing the nullable id becomes either a known-zero scalar (null branch)
// or loses its MaybeNull marking (non-null branch).
func (e *env) markPtrOrNullRegs(st *State, id uint32, isNull bool) {
	if id == 0 {
		return
	}
	f := st.Cur()
	for r := 0; r < isa.NumReg; r++ {
		reg := &f.Regs[r]
		if reg.MaybeNull && reg.ID == id {
			if isNull {
				// A null acquired pointer carries no reference;
				// drop it, as mark_ptr_or_null_reg does.
				if reg.RefObj != 0 {
					e.releaseRef(st, reg.RefObj)
				}
				// Note: like the pre-fix kernel, the accumulated
				// fixed offset is discarded — with pointer
				// arithmetic on nullable pointers allowed (the
				// CVE-2022-23222 knob) this belief is wrong.
				*reg = constScalar(0)
			} else {
				reg.MaybeNull = false
				reg.ID = 0
			}
		}
	}
	for s := f.lo; s < NumStackSlots; s++ {
		slot := &f.Stack[s]
		if slot.Kind == SlotSpill && slot.Spill.MaybeNull && slot.Spill.ID == id {
			if isNull {
				slot.Spill = constScalar(0)
			} else {
				slot.Spill.MaybeNull = false
				slot.Spill.ID = 0
			}
		}
	}
}

// refinePacketBranch implements find_good_pkt_pointers for the canonical
// data/data_end comparison forms. It returns true if the comparison was a
// packet-range comparison.
func (e *env) refinePacketBranch(st *State, op uint8, dst, src *RegState, taken bool) bool {
	var pkt *RegState
	var rangeProven bool
	switch {
	case dst.Type == PtrToPacket && src.Type == PtrToPacketEnd:
		pkt = dst
		switch op {
		case isa.JGT:
			rangeProven = !taken // fall-through: pkt <= end
		case isa.JLE:
			rangeProven = taken
		case isa.JGE:
			rangeProven = !taken // fall-through: pkt < end
		case isa.JLT:
			rangeProven = taken
		default:
			return false
		}
	case dst.Type == PtrToPacketEnd && src.Type == PtrToPacket:
		pkt = src
		switch op {
		case isa.JLT:
			rangeProven = !taken // fall-through: end >= pkt
		case isa.JGE:
			rangeProven = taken
		case isa.JLE:
			rangeProven = !taken
		case isa.JGT:
			rangeProven = taken
		default:
			return false
		}
	default:
		return false
	}
	if !rangeProven || !pkt.VarOff.IsConst() || pkt.Off <= 0 {
		return true // it was a pkt comparison, just no new range
	}
	newRange := pkt.Off
	f := st.Cur()
	for r := 0; r < isa.NumReg; r++ {
		reg := &f.Regs[r]
		if reg.Type == PtrToPacket && reg.ID == pkt.ID && reg.Range < newRange {
			reg.Range = newRange
		}
	}
	return true
}

// checkExit handles BPF_EXIT: returning from a subprogram frame or ending
// the path at the main frame.
func (e *env) checkExit(st *State, i int) (bool, *State, error) {
	if len(st.Frames) > 1 {
		e.covs(siteExitSubprog)
		callee := st.Cur()
		if callee.Regs[isa.R0].Type == NotInit {
			return false, nil, e.reject(i, EACCES, "R0 !read_ok")
		}
		r0 := callee.Regs[isa.R0]
		callSite := callee.CallSite
		last := len(st.Frames) - 1
		e.releaseFrame(st.Frames[last])
		st.Frames[last] = nil
		st.Frames = st.Frames[:last]
		caller := st.Cur()
		caller.Regs[isa.R0] = r0
		for r := isa.R1; r <= isa.R5; r++ {
			caller.Regs[r].markNotInit()
		}
		st.Insn = callSite + 1
		return false, nil, nil
	}
	e.covs(siteExitMain)
	r0 := st.Reg(isa.R0)
	if r0.Type == NotInit {
		return false, nil, e.reject(i, EACCES, "R0 !read_ok")
	}
	if r0.Type != Scalar {
		return false, nil, e.reject(i, EACCES, "R0 leaks addr as return value")
	}
	if len(st.Refs) != 0 {
		e.cov("exit:unreleased_ref")
		return false, nil, e.reject(i, EACCES, "Unreleased reference id=%d", st.Refs[0])
	}
	e.r0Bounds.widen(r0)
	return true, nil, nil
}
