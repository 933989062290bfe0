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

// StateTable is the per-program claim table: row i holds the joined
// claims about every register at instruction i, in three flat planes.
//
//   - kinds holds each claim's ClaimKind, isa.NumReg bytes a row, so
//     reset clears only this plane and the masks, and record tells a
//     register settled at ClaimSkip without touching its claim.
//   - claims holds one RegClaim per (instruction, register). Only the
//     entries of checkable claims (ClaimScalar and the pointer kinds) are
//     kept current; the others are stale and never read.
//   - live is one mask a row, bit r set exactly when register r's claim
//     is checkable, so the oracle's hook visits only those claims.
//
// The zero value is an empty table that Config.States can record into.
type StateTable struct {
	kinds   []ClaimKind
	claims  []RegClaim
	live    []uint16
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
	// shadow, when non-nil, is handed every reset and record before the
	// table applies it. Verify never sets it; the differential test sets
	// it to the reference recorder to compare the two claim for claim.
	shadow recorder
}

// recorder is what Verify drives while it records claims: one reset for
// the program, then one record per simulated instruction.
type recorder interface {
	reset(prog *isa.Program)
	record(insn int, f *FuncState)
}

// reset empties t for prog: every claim is ClaimNone, and allowStack and
// poisoned describe prog alone. It clears the kinds and the live masks,
// not the claims they make stale, and grows the planes only when prog is
// longer than every program t held before, to exactly prog's length.
func (t *StateTable) reset(prog *isa.Program) {
	if t.shadow != nil {
		t.shadow.reset(prog)
	}
	n := len(prog.Insns)
	if cap(t.live) < n {
		t.kinds = make([]ClaimKind, n*isa.NumReg)
		t.claims = make([]RegClaim, n*isa.NumReg)
		t.live = make([]uint16, n)
	} else {
		t.kinds, t.claims, t.live = t.kinds[:n*isa.NumReg], t.claims[:n*isa.NumReg], t.live[:n]
		clear(t.kinds)
		clear(t.live)
	}
	t.numInsn = n
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
// A claim that is not checkable carries only its kind.
func (t *StateTable) Claim(insn, reg int) RegClaim {
	i := insn*isa.NumReg + reg
	if k := t.kinds[i]; k < ClaimScalar {
		return RegClaim{Kind: k}
	}
	return t.claims[i]
}

// LiveRow returns instruction insn's checkable claims: live has bit r set
// exactly when Claim(insn, r).Kind is ClaimScalar or a pointer kind, and
// then claims[r] is that claim. An entry whose bit is clear is stale. The
// row belongs to the table: the next verification into it overwrites it.
func (t *StateTable) LiveRow(insn int) (live uint16, claims *[isa.NumReg]RegClaim) {
	base := insn * isa.NumReg
	return t.live[insn], (*[isa.NumReg]RegClaim)(t.claims[base : base+isa.NumReg])
}

// record joins the current frame's registers into the claims at insn.
// Claims copy values out of f — f belongs to a pooled State that will be
// recycled — so the table never aliases exploration state. A register
// whose claim is already ClaimSkip is not looked at: no join leaves
// ClaimSkip.
func (t *StateTable) record(insn int, f *FuncState) {
	if t.shadow != nil {
		t.shadow.record(insn, f)
	}
	base := insn * isa.NumReg
	kinds := (*[isa.NumReg]ClaimKind)(t.kinds[base : base+isa.NumReg])
	live := t.live[insn]
	for r, k := range kinds {
		switch {
		case k == ClaimSkip:
			continue
		case t.poisoned&(1<<r) != 0:
			k = ClaimSkip
		default:
			k = joinReg(&t.claims[base+r], k, &f.Regs[r], t.allowStack)
		}
		kinds[r] = k
		if k == ClaimSkip {
			live &^= 1 << r
		} else {
			live |= 1 << r
		}
	}
	t.live[insn] = live
}

// joinReg widens the claim c, of kind k, to cover register r, and returns
// the claim's new kind. A ClaimNone claim becomes r's own claim; a claim
// of r's kind widens in place to cover it. An uncheckable r, or one whose
// kind differs from k (paths that disagree), makes the claim ClaimSkip,
// which costs oracle coverage, never soundness. k is never ClaimSkip.
//
// For a scalar the claim is r's tnum and ranges, with 32-bit subranges
// derived from them; for a pointer it is the byte delta from the base
// object, the fixed offset folded in (see RegClaim).
func joinReg(c *RegClaim, k ClaimKind, r *RegState, allowStack bool) ClaimKind {
	switch {
	case r.Type == Scalar:
		if k != ClaimNone && k != ClaimScalar {
			return ClaimSkip
		}
		// 32-bit subranges: the subregister's tnum bounds, tightened by
		// the 64-bit unsigned range when that range fits in 32 bits (a
		// 64-bit bound says nothing about the low half otherwise).
		sub := r.VarOff.Subreg()
		u32Min, u32Max := uint32(sub.Min()), uint32(sub.Max())
		if r.UMax <= math.MaxUint32 {
			u32Min = max(u32Min, uint32(r.UMin))
			u32Max = min(u32Max, uint32(r.UMax))
		}
		// Signed 32-bit from unsigned 32-bit, only when the unsigned
		// interval does not straddle the sign boundary (int32 is monotone
		// on each half).
		s32Min, s32Max := int32(math.MinInt32), int32(math.MaxInt32)
		if (u32Min >= 0x80000000) == (u32Max >= 0x80000000) {
			s32Min, s32Max = int32(u32Min), int32(u32Max)
		}
		if k == ClaimNone {
			*c = RegClaim{
				Kind: ClaimScalar,
				Var:  r.VarOff,
				SMin: r.SMin, SMax: r.SMax,
				UMin: r.UMin, UMax: r.UMax,
				U32Min: u32Min, U32Max: u32Max,
				S32Min: s32Min, S32Max: s32Max,
			}
			return ClaimScalar
		}
		c.Var = tnum.Union(c.Var, r.VarOff)
		c.SMin, c.SMax = min(c.SMin, r.SMin), max(c.SMax, r.SMax)
		c.UMin, c.UMax = min(c.UMin, r.UMin), max(c.UMax, r.UMax)
		c.U32Min, c.U32Max = min(c.U32Min, u32Min), max(c.U32Max, u32Max)
		c.S32Min, c.S32Max = min(c.S32Min, s32Min), max(c.S32Max, s32Max)
		return ClaimScalar

	case r.Type == PtrToStack && allowStack, r.Type == PtrToCtx, r.Type == PtrToPacket:
		kind := ClaimCtxPtr
		switch r.Type {
		case PtrToStack:
			kind = ClaimStackPtr
		case PtrToPacket:
			kind = ClaimPktPtr
		}
		if r.MaybeNull || (k != ClaimNone && k != kind) {
			return ClaimSkip
		}
		lo, ok1 := addInt64(int64(r.Off), r.SMin)
		hi, ok2 := addInt64(int64(r.Off), r.SMax)
		if !ok1 || !ok2 {
			return ClaimSkip
		}
		v := tnum.Add(r.VarOff, tnum.Const(uint64(int64(r.Off))))
		if k == ClaimNone {
			*c = RegClaim{Kind: kind, Var: v, SMin: lo, SMax: hi}
			return kind
		}
		c.Var = tnum.Union(c.Var, v)
		c.SMin, c.SMax = min(c.SMin, lo), max(c.SMax, hi)
		return kind
	}
	// NotInit, nullable or unmodeled pointer kinds: unchecked.
	return ClaimSkip
}

// addInt64 adds without overflow; ok is false when the sum wraps.
func addInt64(a, b int64) (sum int64, ok bool) {
	sum = a + b
	if (b > 0 && sum < a) || (b < 0 && sum > a) {
		return 0, false
	}
	return sum, true
}
