package verifier

import (
	"math"

	"repro/internal/isa"
	"repro/internal/tnum"
)

// refStateTable is the claim table as it was before rows were
// initialized lazily, kept as the reference the differential tests
// compare StateTable against: reset clears one RegClaim per (instruction,
// register), and record derives and joins all twelve registers at every
// step, ClaimSkip ones included. Set as a StateTable's shadow, it records
// exactly what that table records.
type refStateTable struct {
	claims     []RegClaim
	numInsn    int
	allowStack bool
	poisoned   uint16
}

func (t *refStateTable) reset(prog *isa.Program) {
	n := len(prog.Insns) * isa.NumReg
	if cap(t.claims) < n {
		t.claims = make([]RegClaim, n)
	} else {
		t.claims = t.claims[:n]
		clear(t.claims)
	}
	t.numInsn = len(prog.Insns)
	t.allowStack = true
	t.poisoned = 0
	for _, ins := range prog.Insns {
		if ins.IsPseudoCall() {
			t.allowStack = false
		}
		if impreciseALU(ins) {
			t.poisoned |= 1 << ins.Dst
		}
	}
}

func (t *refStateTable) NumInsns() int { return t.numInsn }

func (t *refStateTable) Claim(insn, reg int) RegClaim {
	return t.claims[insn*isa.NumReg+reg]
}

func (t *refStateTable) programShape() (allowStack bool, poisoned uint16) {
	return t.allowStack, t.poisoned
}

func (t *refStateTable) record(insn int, f *FuncState) {
	base := insn * isa.NumReg
	for r := 0; r < isa.NumReg; r++ {
		if t.poisoned&(1<<r) != 0 {
			t.claims[base+r] = RegClaim{Kind: ClaimSkip}
			continue
		}
		refJoinClaim(&t.claims[base+r], refDeriveClaim(&f.Regs[r], t.allowStack))
	}
}

// refDeriveClaim converts one register state into a checkable claim.
func refDeriveClaim(r *RegState, allowStack bool) RegClaim {
	switch {
	case r.Type == Scalar:
		c := RegClaim{
			Kind: ClaimScalar,
			Var:  r.VarOff,
			SMin: r.SMin, SMax: r.SMax,
			UMin: r.UMin, UMax: r.UMax,
		}
		sub := r.VarOff.Subreg()
		c.U32Min, c.U32Max = uint32(sub.Min()), uint32(sub.Max())
		if r.UMax <= math.MaxUint32 {
			if u := uint32(r.UMin); u > c.U32Min {
				c.U32Min = u
			}
			if u := uint32(r.UMax); u < c.U32Max {
				c.U32Max = u
			}
		}
		if (c.U32Min >= 0x80000000) == (c.U32Max >= 0x80000000) {
			c.S32Min, c.S32Max = int32(c.U32Min), int32(c.U32Max)
		} else {
			c.S32Min, c.S32Max = math.MinInt32, math.MaxInt32
		}
		return c

	case r.Type == PtrToStack && allowStack, r.Type == PtrToCtx, r.Type == PtrToPacket:
		if r.MaybeNull {
			return RegClaim{Kind: ClaimSkip}
		}
		lo, ok1 := addInt64(int64(r.Off), r.SMin)
		hi, ok2 := addInt64(int64(r.Off), r.SMax)
		if !ok1 || !ok2 {
			return RegClaim{Kind: ClaimSkip}
		}
		kind := ClaimCtxPtr
		switch r.Type {
		case PtrToStack:
			kind = ClaimStackPtr
		case PtrToPacket:
			kind = ClaimPktPtr
		}
		return RegClaim{
			Kind: kind,
			Var:  tnum.Add(r.VarOff, tnum.Const(uint64(int64(r.Off)))),
			SMin: lo, SMax: hi,
		}

	default:
		return RegClaim{Kind: ClaimSkip}
	}
}

// refJoinClaim widens dst to cover c. Skip is sticky.
func refJoinClaim(dst *RegClaim, c RegClaim) {
	switch {
	case dst.Kind == ClaimSkip || c.Kind == ClaimNone:
		return
	case c.Kind == ClaimSkip, dst.Kind != ClaimNone && dst.Kind != c.Kind:
		*dst = RegClaim{Kind: ClaimSkip}
	case dst.Kind == ClaimNone:
		*dst = c
	default:
		dst.Var = tnum.Union(dst.Var, c.Var)
		if c.SMin < dst.SMin {
			dst.SMin = c.SMin
		}
		if c.SMax > dst.SMax {
			dst.SMax = c.SMax
		}
		if c.UMin < dst.UMin {
			dst.UMin = c.UMin
		}
		if c.UMax > dst.UMax {
			dst.UMax = c.UMax
		}
		if c.U32Min < dst.U32Min {
			dst.U32Min = c.U32Min
		}
		if c.U32Max > dst.U32Max {
			dst.U32Max = c.U32Max
		}
		if c.S32Min < dst.S32Min {
			dst.S32Min = c.S32Min
		}
		if c.S32Max > dst.S32Max {
			dst.S32Max = c.S32Max
		}
	}
}
