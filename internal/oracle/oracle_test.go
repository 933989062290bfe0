package oracle_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/oracle"
	"repro/internal/runtime"
)

// triggerProgram is the minimal bug-3 soundness witness: a narrow ctx
// load bounded by an AND gives a non-constant scalar in R6, the kfunc
// call lets the armed backtracking bug collapse it to the constant 0,
// and the trailing mov keeps R6 live so the collapsed claim is recorded
// at an instruction the interpreter still reaches.
func triggerProgram() *isa.Program {
	return &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "oracle_witness",
		Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
			isa.Alu64Imm(isa.ALUAnd, isa.R6, 0xff),
			isa.CallKfunc(int32(btf.KfuncRcuReadLock)),
			isa.Mov64Reg(isa.R0, isa.R6),
			isa.Exit(),
		},
	}
}

// TestOracleCatchesBug3Collapse: with the kfunc-backtracking bug armed,
// the verifier claims R6 is the constant 0 after the kfunc call while
// the interpreter still holds the real ctx-derived value — the oracle
// must flag the divergence, Classify must map it to IndicatorSoundness,
// and Triage must attribute it to the armed knob.
func TestOracleCatchesBug3Collapse(t *testing.T) {
	k := kernel.New(kernel.Config{
		Version: kernel.BPFNext, Bugs: bugs.Of(bugs.Bug3KfuncBacktrack),
		Sanitize: true, Oracle: true,
	})
	lp, err := k.LoadProgram(triggerProgram())
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	out := k.Run(lp)
	var v *oracle.Violation
	if !errors.As(out.Err, &v) {
		t.Fatalf("run err = %v, want *oracle.Violation", out.Err)
	}
	if v.Check != "tnum" || v.Reg != int(isa.R6) {
		t.Errorf("violation = %+v, want Check=tnum Reg=6", v)
	}
	if !strings.Contains(v.Error(), "soundness") || !strings.Contains(v.Claim, "scalar") {
		t.Errorf("violation text %q / claim %q not descriptive", v.Error(), v.Claim)
	}
	a := kernel.Classify(out.Err)
	if a == nil || a.Indicator != kernel.IndicatorSoundness || a.Kind != "soundness:tnum" {
		t.Fatalf("Classify = %+v, want indicator3 soundness:tnum", a)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.Bug3KfuncBacktrack {
		t.Errorf("Triage = %v, want Bug3KfuncBacktrack", got)
	}
	if k.OracleViolations != 1 || k.OracleChecks == 0 {
		t.Errorf("oracle counters = %d checks / %d violations", k.OracleChecks, k.OracleViolations)
	}
}

// TestOracleCleanWithoutBug: the same program on an unbugged kernel must
// replay clean — the claims are sound, so the oracle checks them all and
// flags nothing, and the program's own outcome is preserved.
func TestOracleCleanWithoutBug(t *testing.T) {
	k := kernel.New(kernel.Config{
		Version: kernel.BPFNext, Bugs: bugs.None(), Sanitize: true, Oracle: true,
	})
	lp, err := k.LoadProgram(triggerProgram())
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	out := k.Run(lp)
	if out.Err != nil {
		t.Fatalf("run err = %v, want clean", out.Err)
	}
	if k.OracleChecks == 0 {
		t.Error("oracle ran no checks")
	}
	if k.OracleViolations != 0 {
		t.Errorf("oracle violations = %d, want 0", k.OracleViolations)
	}
}

// TestOracleOffRecordsNothing: with the oracle disabled no state table is
// built and the counters stay untouched — the hot path is oblivious.
func TestOracleOffRecordsNothing(t *testing.T) {
	k := kernel.New(kernel.Config{
		Version: kernel.BPFNext, Bugs: bugs.Of(bugs.Bug3KfuncBacktrack), Sanitize: true,
	})
	lp, err := k.LoadProgram(triggerProgram())
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	if lp.Res != nil && lp.Res.States != nil {
		t.Error("state table recorded with oracle off")
	}
	k.Run(lp)
	if k.OracleChecks != 0 || k.OracleViolations != 0 {
		t.Errorf("oracle counters moved with oracle off: %d/%d", k.OracleChecks, k.OracleViolations)
	}
}

// TestViolationErrorFormat pins the report format: dedup keys and triage
// slugs are derived from it, so it must stay stable.
func TestViolationErrorFormat(t *testing.T) {
	v := &oracle.Violation{Insn: 3, Reg: 6, Check: "tnum", Value: 0x40, Claim: "scalar(...)"}
	want := "soundness: insn 3: R6=0x40 escapes tnum [scalar(...)]"
	if got := v.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

// loopProgram sums a ctx-derived byte over a 32-pass bounded loop: every
// executed instruction carries several checkable scalar claims, so one
// replay checks a few hundred.
func loopProgram() *isa.Program {
	return &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "oracle_loop",
		Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
			isa.Alu64Imm(isa.ALUAnd, isa.R6, 0xff),
			isa.Mov64Imm(isa.R7, 0),
			isa.Mov64Imm(isa.R8, 0),
			isa.Alu64Reg(isa.ALUAdd, isa.R8, isa.R6),
			isa.Alu64Imm(isa.ALUAnd, isa.R8, 0xffff),
			isa.Alu64Imm(isa.ALUAdd, isa.R7, 1),
			isa.JumpImm(isa.JLT, isa.R7, 32, -4),
			isa.Mov64Reg(isa.R0, isa.R8),
			isa.Exit(),
		},
	}
}

// BenchmarkOracleRun is one hooked replay of an accepted program, the
// work an oracle kernel adds to every clean run. It reports the claims
// each replay checks.
func BenchmarkOracleRun(b *testing.B) {
	k := kernel.New(kernel.Config{
		Version: kernel.BPFNext, Bugs: bugs.None(), Sanitize: true, Oracle: true,
	})
	lp, err := k.LoadProgram(loopProgram())
	if err != nil {
		b.Fatalf("LoadProgram: %v", err)
	}
	var res *oracle.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res = oracle.Run(runtime.NewExec(k.M, lp.Verified), lp.Res.States)
		if res.Outcome.Err != nil {
			b.Fatalf("replay: %v", res.Outcome.Err)
		}
	}
	b.ReportMetric(float64(res.Checks), "checks/op")
}
