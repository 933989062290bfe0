package verifier

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/tnum"
)

// This file implements the opt-in abstract-state side table behind
// Config.RecordStates. When enabled, the path explorer snapshots the
// verifier's belief about every register immediately before each
// instruction is checked, joined over all explored paths, so a
// differential oracle (internal/oracle) can later assert that the
// concrete runtime values stay inside the abstract claims.
//
// The join is sound for pruned paths too: pruning only discards a state
// subsumed by an already-recorded one, and subsumption means the old
// state's concretization contains the new one's — every execution the
// pruned path could have produced is covered by the claims the subsuming
// walk already recorded at each instruction it passed.

// ClaimKind classifies one joined register claim.
type ClaimKind uint8

// Claim kinds. ClaimNone means no explored path reached the instruction
// with the register live — the oracle must not check it. ClaimSkip means
// some path put the register in a shape the oracle cannot soundly check
// (uninitialized, nullable, an unmodeled pointer type, or paths that
// disagree about the kind).
const (
	ClaimNone ClaimKind = iota
	ClaimSkip
	ClaimScalar
	ClaimStackPtr
	ClaimCtxPtr
	ClaimPktPtr
)

var claimKindNames = [...]string{"none", "skip", "scalar", "fp", "ctx", "pkt"}

func (k ClaimKind) String() string {
	if int(k) < len(claimKindNames) {
		return claimKindNames[k]
	}
	return fmt.Sprintf("claim(%d)", int(k))
}

// RegClaim is the joined abstract claim about one register at one
// instruction. For scalars the tnum and all six ranges describe the
// 64-bit value and its low 32-bit subregister. For pointers the fixed
// offset has been folded in: Var and [SMin,SMax] bound the *byte delta*
// from the pointer's base object (stack frame top, context buffer start,
// packet start) — the unsigned and 32-bit fields are unused, since a
// delta is naturally signed.
type RegClaim struct {
	Kind   ClaimKind
	Var    tnum.Tnum
	SMin   int64
	SMax   int64
	UMin   uint64
	UMax   uint64
	U32Min uint32
	U32Max uint32
	S32Min int32
	S32Max int32
}

// String renders the claim for oracle violation reports. The output is
// stable: triage matches findings by exact report text.
func (c RegClaim) String() string {
	switch c.Kind {
	case ClaimNone, ClaimSkip:
		return c.Kind.String()
	case ClaimScalar:
		return fmt.Sprintf("scalar(var=%v,u=[%d,%d],s=[%d,%d],u32=[%d,%d],s32=[%d,%d])",
			c.Var, c.UMin, c.UMax, c.SMin, c.SMax, c.U32Min, c.U32Max, c.S32Min, c.S32Max)
	default:
		return fmt.Sprintf("%s(delta=[%d,%d],var=%v)", c.Kind, c.SMin, c.SMax, c.Var)
	}
}

// StateTable is the per-program claim table: one RegClaim per
// (instruction, register), flat in one allocation. The zero value is an
// empty table that Config.States can record into.
type StateTable struct {
	claims  []RegClaim
	numInsn int
	// allowStack gates stack-pointer claims. With bpf-to-bpf calls in the
	// program, a stack pointer saved across a call can point into an
	// outer frame while the oracle only sees the innermost frame's R10 at
	// check time, so stack claims would be compared against the wrong
	// base; they are skipped wholesale for such programs.
	allowStack bool
	// poisoned is a register bitmask: some instruction in the program
	// computes into that register through an ALU op whose abstract result
	// the verifier deliberately over-tightens relative to the runtime's
	// corner-case semantics (see impreciseALU). Claims about a poisoned
	// register are recorded as ClaimSkip program-wide — the table cannot
	// tell which paths flow the imprecise value where, and a coarse skip
	// only costs oracle coverage, never a false violation.
	poisoned uint16
}

// NewStateTable sizes a claim table for prog.
func NewStateTable(prog *isa.Program) *StateTable {
	t := new(StateTable)
	t.reset(prog)
	return t
}

// reset empties t for prog: every claim is ClaimNone, and allowStack and
// poisoned describe prog alone. The buffer is reused, and grows only when
// prog is longer than every program t held before.
func (t *StateTable) reset(prog *isa.Program) {
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

// impreciseALU reports whether ins computes a scalar whose verifier
// bounds are knowingly unsound in runtime corner cases, and whose dst
// register therefore cannot carry oracle claims:
//
//   - div/mod with a register divisor: the verifier claims a
//     non-negative result, but a runtime divide-by-zero yields 0 for
//     div and leaves dst *unchanged* for mod (so a negative dst
//     survives), and div by exactly 1 passes a huge dividend through;
//   - signed div/mod (offset 1): modeled with unsigned bounds;
//   - div by constant 1: dst/1 == dst may exceed the claimed
//     non-negative signed range;
//   - rsh by a register or by constant 0: shift by zero leaves dst
//     unchanged, so the claimed sign bit clearing never happened.
//
// These claims feed acceptance decisions, so "fixing" them in the
// verifier would change campaign verdicts; the oracle instead refuses
// to check what the model does not faithfully track.
func impreciseALU(ins isa.Instruction) bool {
	cl := ins.Class()
	if cl != isa.ClassALU && cl != isa.ClassALU64 {
		return false
	}
	byReg := isa.Src(ins.Opcode) == isa.SrcX
	switch isa.Op(ins.Opcode) {
	case isa.ALUDiv:
		return byReg || ins.Off != 0 || ins.Imm == 1
	case isa.ALUMod:
		return byReg || ins.Off != 0
	case isa.ALURsh:
		return byReg || ins.Imm == 0
	}
	return false
}

// NumInsns returns the number of instructions the table covers.
func (t *StateTable) NumInsns() int { return t.numInsn }

// Claim returns the joined claim for register reg at instruction insn.
func (t *StateTable) Claim(insn, reg int) RegClaim {
	return t.claims[insn*isa.NumReg+reg]
}

// record joins the current frame's registers into the claims at insn.
// Claims copy values out of f — f belongs to a pooled State that will be
// recycled — so the table never aliases exploration state.
func (t *StateTable) record(insn int, f *FuncState) {
	base := insn * isa.NumReg
	for r := 0; r < isa.NumReg; r++ {
		if t.poisoned&(1<<r) != 0 {
			t.claims[base+r] = RegClaim{Kind: ClaimSkip}
			continue
		}
		joinClaim(&t.claims[base+r], deriveClaim(&f.Regs[r], t.allowStack))
	}
}

// deriveClaim converts one register state into a checkable claim.
func deriveClaim(r *RegState, allowStack bool) RegClaim {
	switch {
	case r.Type == Scalar:
		c := RegClaim{
			Kind: ClaimScalar,
			Var:  r.VarOff,
			SMin: r.SMin, SMax: r.SMax,
			UMin: r.UMin, UMax: r.UMax,
		}
		// 32-bit subranges: the subregister's tnum bounds, tightened by
		// the 64-bit unsigned range when that range fits in 32 bits (a
		// 64-bit bound says nothing about the low half otherwise).
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
		// Signed 32-bit from unsigned 32-bit, only when the unsigned
		// interval does not straddle the sign boundary (int32 is monotone
		// on each half).
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
		// NotInit, nullable or unmodeled pointer kinds: unchecked.
		return RegClaim{Kind: ClaimSkip}
	}
}

// joinClaim widens dst to cover c. Skip is sticky — one uncheckable path
// poisons the claim, which only costs oracle coverage, never soundness.
func joinClaim(dst *RegClaim, c RegClaim) {
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

// addInt64 adds without overflow; ok is false when the sum wraps.
func addInt64(a, b int64) (sum int64, ok bool) {
	sum = a + b
	if (b > 0 && sum < a) || (b < 0 && sum > a) {
		return 0, false
	}
	return sum, true
}
