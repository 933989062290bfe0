package verifier

import (
	"math"

	"repro/internal/bugs"
	"repro/internal/isa"
	"repro/internal/tnum"
)

// maxVarOff bounds variable pointer offsets, like the kernel's
// BPF_MAX_VAR_OFF.
const maxVarOff = 1 << 29

// recordRangeCheck accumulates the verifier's belief about the scalar
// operand at a pointer-arithmetic site. Distinct explored paths may reach
// the same instruction with different beliefs; the emitted assertion is a
// single static check, so the recorded range is the union over all paths
// (the kernel's sanitize_ptr_alu tracks the same per-path divergence via
// REASON_PATHS).
func (e *env) recordRangeCheck(i int, reg uint8, scalar *RegState) {
	if e.aluScalarPath[i] {
		// A sibling path used this insn as plain scalar arithmetic;
		// the static assertion must never fire (see checkALU).
		e.rangeChecks[i] = RangeCheck{
			InsnIdx: i, Reg: reg,
			SMin: math.MinInt64, SMax: math.MaxInt64, UMax: math.MaxUint64,
		}
		e.rcSet[i] = true
		return
	}
	if !e.rcSet[i] {
		e.rangeChecks[i] = RangeCheck{
			InsnIdx: i, Reg: reg,
			SMin: scalar.SMin, SMax: scalar.SMax, UMax: scalar.UMax,
		}
		e.rcSet[i] = true
		return
	}
	rc := &e.rangeChecks[i]
	if scalar.SMin < rc.SMin {
		rc.SMin = scalar.SMin
	}
	if scalar.SMax > rc.SMax {
		rc.SMax = scalar.SMax
	}
	if scalar.UMax > rc.UMax {
		rc.UMax = scalar.UMax
	}
}

// checkALU validates and simulates one ALU/ALU64 instruction.
func (e *env) checkALU(st *State, i int, ins isa.Instruction) error {
	op := isa.Op(ins.Opcode)
	is64 := ins.Class() == isa.ClassALU64

	if err := e.checkRegWrite(st, i, ins.Dst); err != nil {
		return err
	}

	switch op {
	case isa.ALUEnd:
		e.cov("alu:end")
		if err := e.checkRegRead(st, i, ins.Dst); err != nil {
			return err
		}
		if st.Reg(ins.Dst).Type != Scalar {
			return e.reject(i, EACCES, "R%d byte swap on pointer prohibited", ins.Dst)
		}
		st.Reg(ins.Dst).markUnknown()
		return nil

	case isa.ALUNeg:
		e.cov("alu:neg")
		if err := e.checkRegRead(st, i, ins.Dst); err != nil {
			return err
		}
		dst := st.Reg(ins.Dst)
		if dst.Type != Scalar {
			return e.reject(i, EACCES, "R%d pointer negation prohibited", ins.Dst)
		}
		zero := constScalar(0)
		res := scalarALU(isa.ALUSub, &zero, dst, is64)
		*dst = res
		return nil

	case isa.ALUMov:
		return e.checkMov(st, i, ins, is64)
	}

	// Binary operation: dst op= src|imm.
	if err := e.checkRegRead(st, i, ins.Dst); err != nil {
		return err
	}
	var src RegState
	if isa.Src(ins.Opcode) == isa.SrcX {
		if err := e.checkRegRead(st, i, ins.Src); err != nil {
			return err
		}
		src = *st.Reg(ins.Src)
	} else {
		src = constScalar(uint64(int64(ins.Imm)))
	}
	dst := st.Reg(ins.Dst)

	// Constant-zero divisor is rejected at load time.
	if (op == isa.ALUDiv || op == isa.ALUMod) && isa.Src(ins.Opcode) == isa.SrcK && ins.Imm == 0 {
		return e.reject(i, EINVAL, "division by zero")
	}
	// Constant over-shifts are rejected.
	if op == isa.ALULsh || op == isa.ALURsh || op == isa.ALUArsh {
		bits := int32(64)
		if !is64 {
			bits = 32
		}
		if isa.Src(ins.Opcode) == isa.SrcK && (ins.Imm < 0 || ins.Imm >= bits) {
			return e.reject(i, EINVAL, "invalid shift %d", ins.Imm)
		}
	}

	dstPtr := dst.Type.IsPointer()
	srcPtr := src.Type.IsPointer()
	switch {
	case !dstPtr && !srcPtr:
		e.covAluScalar(op)
		// Another explored path may use this same instruction as
		// pointer arithmetic; its alu_limit assertion would then fire
		// on this path's unrelated values. The kernel treats such
		// ptr/scalar path mixes specially (REASON_PATHS); here the
		// check is neutralized, which is sound (it simply never
		// fires).
		if isa.Src(ins.Opcode) == isa.SrcX {
			e.aluScalarPath[i] = true
			if e.rcSet[i] {
				rc := &e.rangeChecks[i]
				rc.SMin, rc.SMax = math.MinInt64, math.MaxInt64
				rc.UMax = math.MaxUint64
			}
		}
		*dst = scalarALU(op, dst, &src, is64)
		return nil
	case dstPtr && !srcPtr:
		return e.checkPtrALU(st, i, ins, op, is64, dst, &src, ins.Src, isa.Src(ins.Opcode) == isa.SrcX)
	case !dstPtr && srcPtr:
		// dst(scalar) += ptr: commutative add makes dst the pointer.
		// The scalar operand is the *destination* register here, so any
		// alu_limit assertion must watch ins.Dst, not ins.Src.
		if op == isa.ALUAdd && is64 {
			e.cov("alu:scalar_plus_ptr")
			scalar := *dst
			*dst = src
			return e.checkPtrALU(st, i, ins, op, is64, dst, &scalar, ins.Dst, true)
		}
		e.cov("alu:scalar_ptr_reject")
		return e.reject(i, EACCES, "R%d pointer operand to %s prohibited", ins.Src, aluOpName(op))
	default: // ptr op ptr
		if op == isa.ALUSub && is64 && dst.Type == src.Type && sameObject(dst, &src) {
			// ptr - ptr over the same object yields a scalar.
			e.cov("alu:ptr_sub_ptr")
			dst.markUnknown()
			return nil
		}
		e.cov("alu:ptr_ptr_reject")
		return e.reject(i, EACCES, "R%d pointer %s pointer prohibited", ins.Dst, aluOpName(op))
	}
}

func sameObject(a, b *RegState) bool {
	switch a.Type {
	case PtrToStack:
		return true
	case PtrToMapValue, ConstPtrToMap:
		return a.MapIdx == b.MapIdx
	case PtrToPacket, PtrToPacketEnd:
		return true
	case PtrToBTFID:
		return a.BTF == b.BTF
	}
	return false
}

func (e *env) checkMov(st *State, i int, ins isa.Instruction, is64 bool) error {
	if isa.Src(ins.Opcode) == isa.SrcK {
		e.covs(siteAluMovImm)
		v := uint64(int64(ins.Imm))
		if !is64 {
			v = uint64(uint32(ins.Imm))
		}
		*st.Reg(ins.Dst) = constScalar(v)
		return nil
	}
	if err := e.checkRegRead(st, i, ins.Src); err != nil {
		return err
	}
	src := st.Reg(ins.Src)
	dst := st.Reg(ins.Dst)
	if is64 {
		if ins.Off != 0 {
			// Sign-extending move of a scalar.
			if src.Type != Scalar {
				return e.reject(i, EACCES, "R%d sign-extending move on pointer prohibited", ins.Src)
			}
			e.cov("alu:movsx")
			*dst = unknownScalar()
			return nil
		}
		e.covs(siteAluMovReg)
		*dst = *src
		return nil
	}
	// 32-bit move truncates; pointers become unknown scalars (the
	// pointer value leaks, which is fine for privileged loads).
	e.covs(siteAluMov32Reg)
	if src.Type == Scalar {
		r := *src
		truncate32(&r)
		*dst = r
	} else {
		*dst = unknownScalar()
		dst.UMax = math.MaxUint32
		dst.SMin = 0
		dst.SMax = math.MaxUint32
		dst.VarOff = tnum.Unknown.Cast(4)
	}
	return nil
}

// checkPtrALU validates pointer +/- scalar, mirroring
// adjust_ptr_min_max_vals.
func (e *env) checkPtrALU(st *State, i int, ins isa.Instruction, op uint8, is64 bool, dst *RegState, scalar *RegState, scalarReg uint8, scalarIsReg bool) error {
	if !is64 {
		e.cov("alu:ptr32_reject")
		return e.reject(i, EACCES, "R%d 32-bit pointer arithmetic prohibited", ins.Dst)
	}
	if op != isa.ALUAdd && op != isa.ALUSub {
		e.cov("alu:ptr_op_reject")
		return e.reject(i, EACCES, "R%d pointer arithmetic with %s operator prohibited", ins.Dst, aluOpName(op))
	}
	if dst.MaybeNull && !e.cfg.Bugs.Has(bugs.CVE2022_23222) {
		// The CVE-2022-23222 fix: no arithmetic on nullable pointers.
		e.cov("alu:ptr_or_null_reject")
		return e.reject(i, EACCES, "R%d pointer arithmetic on %s_or_null prohibited, null-check it first", ins.Dst, dst.Type)
	}
	if dst.MaybeNull {
		e.cov("alu:ptr_or_null_allowed_bug")
	}

	switch dst.Type {
	case ConstPtrToMap, PtrToPacketEnd:
		return e.reject(i, EACCES, "R%d pointer arithmetic on %s prohibited", ins.Dst, dst.Type)
	case PtrToCtx, PtrToBTFID, PtrToStack:
		// Only constant offsets.
		if !scalar.IsConst() {
			e.cov("alu:ptr_var_reject")
			return e.reject(i, EACCES, "R%d variable offset on %s prohibited", ins.Dst, dst.Type)
		}
	}

	if scalar.IsConst() {
		e.covs(siteAluPtrConst)
		c := int64(scalar.ConstVal())
		// Even a "known constant" register deserves the alu_limit
		// assertion when it is a register operand: if the range
		// analysis that produced the constant was wrong (e.g. the
		// Bug #3 backtracking collapse), the runtime value diverges
		// and the check fires.
		if scalarIsReg {
			e.recordRangeCheck(i, scalarReg, scalar)
		}
		if op == isa.ALUSub {
			c = -c
		}
		newOff := int64(dst.Off) + c
		if newOff > math.MaxInt32 || newOff < math.MinInt32 {
			return e.reject(i, EACCES, "value %d makes pointer offset overflow", c)
		}
		dst.Off = int32(newOff)
		return nil
	}

	// Variable offset: bounds must be sane and bounded.
	e.covPtrVar(dst.Type)
	if scalar.SMin == math.MinInt64 || scalar.SMax == math.MaxInt64 ||
		scalar.SMin < -maxVarOff || scalar.SMax > maxVarOff {
		return e.reject(i, EACCES, "math between %s pointer and register with unbounded min/max value is not allowed", dst.Type)
	}

	// Record the believed range so the sanitizer can assert it at
	// runtime (the alu_limit mechanism).
	if scalarIsReg {
		e.recordRangeCheck(i, scalarReg, scalar)
	}

	// Fold the variable part into the pointer's var tracking.
	var res RegState = *dst
	sc := *scalar
	if op == isa.ALUSub {
		zero := constScalar(0)
		sc = scalarALU(isa.ALUSub, &zero, &sc, true)
	}
	sum := scalarALU(isa.ALUAdd, &RegState{
		Type: Scalar, VarOff: dst.VarOff,
		SMin: dst.SMin, SMax: dst.SMax, UMin: dst.UMin, UMax: dst.UMax,
	}, &sc, true)
	res.VarOff = sum.VarOff
	res.SMin, res.SMax, res.UMin, res.UMax = sum.SMin, sum.SMax, sum.UMin, sum.UMax
	if res.Type == PtrToPacket {
		// A variable-offset packet pointer loses its validated range.
		res.Range = 0
	}
	*dst = res
	return nil
}

var aluOpNames = map[uint8]string{
	isa.ALUAdd: "+=", isa.ALUSub: "-=", isa.ALUMul: "*=", isa.ALUDiv: "/=",
	isa.ALUOr: "|=", isa.ALUAnd: "&=", isa.ALULsh: "<<=", isa.ALURsh: ">>=",
	isa.ALUMod: "%=", isa.ALUXor: "^=", isa.ALUMov: "=", isa.ALUArsh: "s>>=",
	isa.ALUNeg: "neg", isa.ALUEnd: "bswap",
}

func aluOpName(op uint8) string {
	if n, ok := aluOpNames[op]; ok {
		return n
	}
	return "?"
}

// truncate32 narrows a scalar to its low 32 bits.
func truncate32(r *RegState) {
	r.VarOff = r.VarOff.Cast(4)
	r.UMin = r.VarOff.Min()
	r.UMax = r.VarOff.Max()
	if r.UMax > math.MaxUint32 {
		r.UMax = math.MaxUint32
	}
	r.SMin = int64(r.UMin)
	r.SMax = int64(r.UMax)
	r.updateBounds()
}

// scalarALU computes the abstract result of a scalar op, following
// adjust_scalar_min_max_vals.
func scalarALU(op uint8, a, b *RegState, is64 bool) RegState {
	res := unknownScalar()
	av, bv := *a, *b
	if !is64 {
		truncate32(&av)
		truncate32(&bv)
	}

	switch op {
	case isa.ALUAdd:
		res.VarOff = tnum.Add(av.VarOff, bv.VarOff)
		smin, sminOK := addS(av.SMin, bv.SMin)
		smax, smaxOK := addS(av.SMax, bv.SMax)
		if sminOK && smaxOK {
			res.SMin, res.SMax = smin, smax
		}
		if umax, ok := addU(av.UMax, bv.UMax); ok {
			res.UMin = av.UMin + bv.UMin
			res.UMax = umax
		}
	case isa.ALUSub:
		res.VarOff = tnum.Sub(av.VarOff, bv.VarOff)
		smin, sminOK := subS(av.SMin, bv.SMax)
		smax, smaxOK := subS(av.SMax, bv.SMin)
		if sminOK && smaxOK {
			res.SMin, res.SMax = smin, smax
		}
		if av.UMin >= bv.UMax {
			res.UMin = av.UMin - bv.UMax
			res.UMax = av.UMax - bv.UMin
		}
	case isa.ALUMul:
		res.VarOff = tnum.Mul(av.VarOff, bv.VarOff)
		if av.UMax <= math.MaxUint32 && bv.UMax <= math.MaxUint32 {
			res.UMin = av.UMin * bv.UMin
			res.UMax = av.UMax * bv.UMax
			if res.UMax <= math.MaxInt64 {
				res.SMin = 0
				res.SMax = int64(res.UMax)
			}
		}
	case isa.ALUDiv:
		if bv.IsConst() && bv.ConstVal() != 0 {
			if av.IsConst() {
				res = constScalar(av.ConstVal() / bv.ConstVal())
			} else {
				res.UMin = 0
				res.UMax = av.UMax / bv.ConstVal()
				res.SMin = 0
				if res.UMax <= math.MaxInt64 {
					res.SMax = int64(res.UMax)
				}
				res.VarOff = tnum.Range(res.UMin, res.UMax)
			}
		} else {
			// Runtime divide-by-zero yields 0; result unknown but
			// never exceeds the dividend.
			res.UMax = av.UMax
			res.UMin = 0
			res.SMin = 0
			if av.UMax <= math.MaxInt64 {
				res.SMax = int64(av.UMax)
			}
			res.VarOff = tnum.Range(0, res.UMax)
		}
	case isa.ALUMod:
		if bv.IsConst() && bv.ConstVal() != 0 {
			if av.IsConst() {
				res = constScalar(av.ConstVal() % bv.ConstVal())
			} else {
				res.UMin = 0
				res.UMax = bv.ConstVal() - 1
				if av.UMax < res.UMax {
					res.UMax = av.UMax
				}
				res.SMin = 0
				res.SMax = int64(res.UMax)
				res.VarOff = tnum.Range(0, res.UMax)
			}
		} else {
			res.UMin = 0
			res.UMax = av.UMax
			res.SMin = 0
			if av.UMax <= math.MaxInt64 {
				res.SMax = int64(av.UMax)
			}
			res.VarOff = tnum.Range(0, res.UMax)
		}
	case isa.ALUAnd:
		res.VarOff = tnum.And(av.VarOff, bv.VarOff)
		res.UMin = res.VarOff.Min()
		res.UMax = res.VarOff.Max()
		if av.UMax < res.UMax {
			res.UMax = av.UMax
		}
		if bv.UMax < res.UMax {
			res.UMax = bv.UMax
		}
		if int64(res.UMax) >= 0 {
			res.SMin, res.SMax = 0, int64(res.UMax)
		}
	case isa.ALUOr:
		res.VarOff = tnum.Or(av.VarOff, bv.VarOff)
		res.UMin = res.VarOff.Min()
		res.UMax = res.VarOff.Max()
		if int64(res.UMax) >= 0 {
			res.SMin, res.SMax = int64(res.UMin), int64(res.UMax)
		}
	case isa.ALUXor:
		res.VarOff = tnum.Xor(av.VarOff, bv.VarOff)
		res.UMin = res.VarOff.Min()
		res.UMax = res.VarOff.Max()
		if int64(res.UMax) >= 0 {
			res.SMin, res.SMax = int64(res.UMin), int64(res.UMax)
		}
	case isa.ALULsh:
		if bv.IsConst() {
			sh := uint8(bv.ConstVal() & 63)
			res.VarOff = av.VarOff.Lshift(sh)
			if av.UMax <= math.MaxUint64>>sh {
				res.UMin = av.UMin << sh
				res.UMax = av.UMax << sh
				if res.UMax <= math.MaxInt64 {
					res.SMin = int64(res.UMin)
					res.SMax = int64(res.UMax)
				}
			}
		}
	case isa.ALURsh:
		if bv.IsConst() {
			sh := uint8(bv.ConstVal() & 63)
			res.VarOff = av.VarOff.Rshift(sh)
			res.UMin = av.UMin >> sh
			res.UMax = av.UMax >> sh
			res.SMin = 0
			if res.UMax <= math.MaxInt64 {
				res.SMax = int64(res.UMax)
			}
		} else {
			res.UMin = 0
			res.UMax = av.UMax
			res.SMin = 0
			if av.UMax <= math.MaxInt64 {
				res.SMax = int64(av.UMax)
			}
		}
	case isa.ALUArsh:
		if bv.IsConst() {
			bits := uint8(64)
			if !is64 {
				bits = 32
			}
			sh := uint8(bv.ConstVal()) % bits
			res.VarOff = av.VarOff.Arshift(sh, bits)
			res.SMin = av.SMin >> sh
			res.SMax = av.SMax >> sh
			if res.SMin >= 0 {
				res.UMin = uint64(res.SMin)
				res.UMax = uint64(res.SMax)
			}
		}
	}

	if !is64 {
		truncate32(&res)
	} else {
		res.updateBounds()
	}
	if !res.boundsSane() {
		// Inconsistent knowledge — fall back to unknown (sound).
		res = unknownScalar()
		if !is64 {
			truncate32(&res)
		}
	}
	return res
}

func addS(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subS(a, b int64) (int64, bool) {
	s := a - b
	if (b < 0 && s < a) || (b > 0 && s > a) {
		return 0, false
	}
	return s, true
}

func addU(a, b uint64) (uint64, bool) {
	s := a + b
	if s < a {
		return 0, false
	}
	return s, true
}
