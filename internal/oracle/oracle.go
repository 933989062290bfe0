// Package oracle implements the differential abstract-state soundness
// checker: it replays an accepted program on the interpreter with a
// per-instruction hook and asserts, for every register the verifier made
// a claim about, that the concrete value is a member of the abstract one
// — tnum membership, all six range invariants for scalars, and
// base-relative offset containment for pointers.
//
// The paper's two indicators only see verifier bugs that *manifest* as a
// bad access or a broken kernel routine; the oracle sees the unsound
// analysis itself, one instruction after it diverges from reality, even
// when that run happens to touch only valid memory. Violations surface
// as kernel.IndicatorSoundness findings and flow through dedup and the
// triage gauntlet, minimization included, exactly like indicator #1/#2.
package oracle

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/runtime"
	"repro/internal/verifier"
)

// Violation is one abstract-state soundness violation: at instruction
// Insn, register Reg held Value, which escapes the verifier's joined
// claim (rendered in Claim) on the invariant named by Check.
//
// Check is one of: tnum, umin, umax, smin, smax, u32min, u32max, s32min,
// s32max for scalars; ptr-smin, ptr-smax, ptr-tnum for pointer deltas.
// Invariants are tested in that fixed order and checking stops at the
// first failure, so the same unsound belief always reports the same
// Check — the anomaly kind triage deduplicates and matches on.
type Violation struct {
	Insn  int
	Reg   int
	Check string
	// Value is the concrete register value (for pointer checks, the
	// delta from the claimed base object).
	Value uint64
	// Claim is the violated claim, rendered stably.
	Claim string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("soundness: insn %d: R%d=%#x escapes %s [%s]",
		v.Insn, v.Reg, v.Value, v.Check, v.Claim)
}

// Result is one oracle-checked execution.
type Result struct {
	// Checks counts (instruction, register) pairs with a live claim that
	// were actually asserted.
	Checks int
	// Violation is the first soundness violation, or nil for a clean run.
	Violation *Violation
	// Outcome is the underlying execution outcome. On a violation its
	// Err is the *Violation (the hook aborts the run).
	Outcome *runtime.ExecOutcome
}

// Run executes x with the soundness hook installed, checking every live
// claim in t before each instruction. The table must come from verifying
// the same program x executes (claim indices are instruction indices;
// the verifier's fixup preserves them). The hook visits only the row's
// checkable claims, in ascending register order, and reads them in place.
func Run(x *runtime.Exec, t *verifier.StateTable) *Result {
	res := &Result{}
	x.SetInsnHook(func(pc int, regs *[isa.NumReg]uint64) error {
		if pc >= t.NumInsns() {
			return nil
		}
		live, row := t.LiveRow(pc)
		for ; live != 0; live &= live - 1 {
			r := bits.TrailingZeros16(live)
			c := &row[r]
			var v *Violation
			switch c.Kind {
			case verifier.ClaimScalar:
				v = checkScalar(pc, r, regs[r], c)
			case verifier.ClaimStackPtr:
				v = checkPtr(pc, r, regs[r], regs[isa.R10], c)
			case verifier.ClaimCtxPtr:
				v = checkPtr(pc, r, regs[r], x.CtxAddr(), c)
			case verifier.ClaimPktPtr:
				v = checkPtr(pc, r, regs[r], x.PacketAddr(), c)
			}
			res.Checks++
			if v != nil {
				v.Claim = c.String()
				res.Violation = v
				return v
			}
		}
		return nil
	})
	res.Outcome = x.Run()
	return res
}

// checkScalar asserts the nine scalar invariants in fixed order.
func checkScalar(pc, r int, v uint64, c *verifier.RegClaim) *Violation {
	bad := func(check string) *Violation {
		return &Violation{Insn: pc, Reg: r, Check: check, Value: v}
	}
	switch {
	case !c.Var.Contains(v):
		return bad("tnum")
	case v < c.UMin:
		return bad("umin")
	case v > c.UMax:
		return bad("umax")
	case int64(v) < c.SMin:
		return bad("smin")
	case int64(v) > c.SMax:
		return bad("smax")
	case uint32(v) < c.U32Min:
		return bad("u32min")
	case uint32(v) > c.U32Max:
		return bad("u32max")
	case int32(uint32(v)) < c.S32Min:
		return bad("s32min")
	case int32(uint32(v)) > c.S32Max:
		return bad("s32max")
	}
	return nil
}

// checkPtr asserts that the pointer's delta from its base object honors
// the claimed signed bounds and tnum. A zero base means the execution
// has no such object (e.g. no packet was built); the claim is vacuous
// then and the check passes.
func checkPtr(pc, r int, v, base uint64, c *verifier.RegClaim) *Violation {
	if base == 0 {
		return nil
	}
	delta := v - base
	bad := func(check string) *Violation {
		return &Violation{Insn: pc, Reg: r, Check: check, Value: delta}
	}
	switch {
	case int64(delta) < c.SMin:
		return bad("ptr-smin")
	case int64(delta) > c.SMax:
		return bad("ptr-smax")
	case !c.Var.Contains(delta):
		return bad("ptr-tnum")
	}
	return nil
}
