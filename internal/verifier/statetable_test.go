package verifier

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// TestImpreciseALU pins which ALU forms poison their dst register's
// claims: exactly the ones whose abstract result bounds the verifier
// over-tightens against the runtime's corner-case semantics. A form
// moving between the lists without a matching modeling change in
// check_alu.go either reopens the oracle's false-positive channel or
// silently drops claim coverage.
func TestImpreciseALU(t *testing.T) {
	imprecise := []isa.Instruction{
		isa.Alu64Reg(isa.ALUDiv, isa.R3, isa.R4), // div-by-zero -> 0; div-by-one passes dst through
		isa.Alu64Reg(isa.ALUMod, isa.R3, isa.R4), // mod-by-zero leaves dst unchanged
		isa.Alu64Reg(isa.ALURsh, isa.R3, isa.R4), // shift-by-zero leaves dst unchanged
		isa.Alu32Reg(isa.ALUDiv, isa.R3, isa.R4), // 32-bit corners match the 64-bit ones
		isa.Alu32Reg(isa.ALUMod, isa.R3, isa.R4),
		isa.Alu32Reg(isa.ALURsh, isa.R3, isa.R4),
		isa.Alu64Imm(isa.ALUDiv, isa.R3, 1),                                           // dst/1 == dst can exceed the claimed signed range
		isa.Alu64Imm(isa.ALURsh, isa.R3, 0),                                           // explicit shift by zero
		{Opcode: isa.ClassALU64 | isa.SrcK | isa.ALUDiv, Dst: isa.R3, Imm: 7, Off: 1}, // sdiv modeled unsigned
		{Opcode: isa.ClassALU64 | isa.SrcK | isa.ALUMod, Dst: isa.R3, Imm: 7, Off: 1}, // smod modeled unsigned
	}
	precise := []isa.Instruction{
		isa.Alu64Imm(isa.ALUDiv, isa.R3, 7),      // result <= dst/7, non-negative
		isa.Alu64Imm(isa.ALUMod, isa.R3, 7),      // result in [0, 6]
		isa.Alu64Imm(isa.ALURsh, isa.R3, 1),      // sign bit really cleared
		isa.Alu64Reg(isa.ALULsh, isa.R3, isa.R4), // modeled as unknown: trivially sound
		isa.Alu64Reg(isa.ALUArsh, isa.R3, isa.R4),
		isa.Alu64Reg(isa.ALUAdd, isa.R3, isa.R4),
		isa.Alu64Reg(isa.ALUMul, isa.R3, isa.R4),
		isa.Mov64Imm(isa.R3, 1),
		isa.Exit(),
	}
	for _, ins := range imprecise {
		if !impreciseALU(ins) {
			t.Errorf("%v: want imprecise (dst claims must be skipped)", ins)
		}
	}
	for _, ins := range precise {
		if impreciseALU(ins) {
			t.Errorf("%v: want precise (dst claims must be kept)", ins)
		}
	}
}

// TestStateTablePoisonedRegister: a program containing one imprecise
// ALU write to R3 must record ClaimSkip for R3 at every instruction,
// while other registers keep their claims.
func TestStateTablePoisonedRegister(t *testing.T) {
	prog := &isa.Program{Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R3, 100),
		isa.Mov64Imm(isa.R4, 0),
		isa.Alu64Reg(isa.ALUMod, isa.R3, isa.R4),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	tab := NewStateTable(prog)
	if tab.poisoned != 1<<isa.R3 {
		t.Fatalf("poisoned mask = %#x, want 1<<R3", tab.poisoned)
	}
	f := &FuncState{}
	for r := range f.Regs {
		f.Regs[r] = unknownScalar()
		f.Regs[r].Type = Scalar
	}
	for i := range prog.Insns {
		tab.record(i, f)
	}
	for i := range prog.Insns {
		if got := tab.Claim(i, int(isa.R3)).Kind; got != ClaimSkip {
			t.Errorf("insn %d: R3 claim kind = %v, want skip", i, got)
		}
		if got := tab.Claim(i, int(isa.R4)).Kind; got != ClaimScalar {
			t.Errorf("insn %d: R4 claim kind = %v, want scalar", i, got)
		}
	}
}

// dirtyProgram is a long accepted program with a bpf-to-bpf call and
// imprecise ALU ops on R3 and R4: the table it leaves behind has
// allowStack off, a poisoned mask, and claims in every row.
func dirtyProgram() *isa.Program {
	insns := []isa.Instruction{
		isa.Mov64Imm(isa.R3, 100),
		isa.Mov64Imm(isa.R4, 7),
		isa.Alu64Reg(isa.ALUMod, isa.R3, isa.R4),
		isa.Alu64Reg(isa.ALUDiv, isa.R4, isa.R3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Mov64Imm(isa.R6, 0),
	}
	for i := 0; i < 32; i++ {
		insns = append(insns, isa.Alu64Imm(isa.ALUAdd, isa.R6, 1))
	}
	insns = append(insns,
		isa.Mov64Reg(isa.R1, isa.R6),
		isa.CallPseudo(1),
		isa.Exit(),
		isa.Mov64Reg(isa.R0, isa.R1), // subprog: return the argument
		isa.Exit(),
	)
	return sockProg(insns...)
}

// claimPrograms are accepted programs that differ in length, in
// pseudo-calls (allowStack) and in imprecise ALU ops (poisoned). Every
// one keeps R3 and a stack pointer live, so a table that kept another
// program's poisoned mask or allowStack would record different claims.
func claimPrograms() []*isa.Program {
	return []*isa.Program{
		sockProg( // short, plain
			isa.Mov64Imm(isa.R3, 5),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
			isa.Mov64Reg(isa.R0, isa.R3),
			isa.Exit(),
		),
		sockProg( // a pseudo-call: no stack claims
			isa.Mov64Imm(isa.R3, 9),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Mov64Reg(isa.R1, isa.R3),
			isa.CallPseudo(1),
			isa.Exit(),
			isa.Mov64Reg(isa.R0, isa.R1),
			isa.Alu64Imm(isa.ALUMul, isa.R0, 2),
			isa.Exit(),
		),
		sockProg( // R4 poisoned by a mod by register
			isa.Mov64Imm(isa.R3, 100),
			isa.Mov64Imm(isa.R4, 7),
			isa.Alu64Reg(isa.ALUMod, isa.R4, isa.R3),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R3, 1),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		),
		hotPathProgram(), // long, plain
		dirtyProgram(),   // longest: a pseudo-call and R3, R4 poisoned
	}
}

// claimSource is a claim table claimsDiff can compare: StateTable, or
// the reference recorder.
type claimSource interface {
	NumInsns() int
	Claim(insn, reg int) RegClaim
	programShape() (allowStack bool, poisoned uint16)
}

func (t *StateTable) programShape() (allowStack bool, poisoned uint16) {
	return t.allowStack, t.poisoned
}

// claimsDiff describes the first difference between two claim tables, or
// returns "" when they cover the same program with the same claims.
func claimsDiff(got, want claimSource) string {
	gs, gp := got.programShape()
	ws, wp := want.programShape()
	if got.NumInsns() != want.NumInsns() || gs != ws || gp != wp {
		return fmt.Sprintf("table covers %d insns (allowStack %v, poisoned %#x), want %d (%v, %#x)",
			got.NumInsns(), gs, gp, want.NumInsns(), ws, wp)
	}
	for i := 0; i < want.NumInsns(); i++ {
		for r := 0; r < isa.NumReg; r++ {
			if g, w := got.Claim(i, r), want.Claim(i, r); g != w {
				return fmt.Sprintf("insn %d R%d: %v, want %v", i, r, g, w)
			}
		}
	}
	return ""
}

// liveDiff describes the first row of t whose LiveRow disagrees with
// Claim, or returns "": bit r of the live mask must be set exactly when
// register r's claim is checkable, and the row must then hold that claim.
func liveDiff(t *StateTable) string {
	for i := 0; i < t.NumInsns(); i++ {
		live, row := t.LiveRow(i)
		for r := 0; r < isa.NumReg; r++ {
			c := t.Claim(i, r)
			set := live&(1<<r) != 0
			if set != (c.Kind >= ClaimScalar) {
				return fmt.Sprintf("insn %d R%d: live bit %v for a %v claim", i, r, set, c.Kind)
			}
			if set && row[r] != c {
				return fmt.Sprintf("insn %d R%d: live row holds %v, claim is %v", i, r, row[r], c)
			}
		}
	}
	return ""
}

// TestStateTableReuseMatchesFresh: recording program B into a table that
// held program A gives, at every (insn, reg), the claims B gets in a
// fresh table — for A longer and shorter than B, and for A and B that
// differ in pseudo-calls and in imprecise ALU ops.
func TestStateTableReuseMatchesFresh(t *testing.T) {
	k := newBenchKernel()
	progs := claimPrograms()
	var longer, shorter, stackDiffers, poisonDiffers int
	for ai, a := range progs {
		for bi, b := range progs {
			if ai == bi {
				continue
			}
			cfg := k.config(nil)
			cfg.RecordStates = true
			fresh, err := Verify(b, cfg)
			if err != nil {
				t.Fatalf("program %d rejected: %v", bi, err)
			}
			tab := new(StateTable)
			cfg.States = tab
			if _, err := Verify(a, cfg); err != nil {
				t.Fatalf("program %d rejected: %v", ai, err)
			}
			held := *tab
			res, err := Verify(b, cfg)
			if err != nil {
				t.Fatalf("program %d rejected after %d: %v", bi, ai, err)
			}
			if res.States != tab {
				t.Fatalf("A=%d B=%d: Result.States is not the caller's table", ai, bi)
			}
			if d := claimsDiff(tab, fresh.States); d != "" {
				t.Errorf("A=%d B=%d: %s", ai, bi, d)
			}
			switch {
			case len(a.Insns) > len(b.Insns):
				longer++
			case len(a.Insns) < len(b.Insns):
				shorter++
			}
			if held.allowStack != tab.allowStack {
				stackDiffers++
			}
			if held.poisoned != tab.poisoned {
				poisonDiffers++
			}
		}
	}
	if longer == 0 || shorter == 0 || stackDiffers == 0 || poisonDiffers == 0 {
		t.Errorf("pairs cover A longer %d, shorter %d, allowStack differs %d, poisoned differs %d times; want each > 0",
			longer, shorter, stackDiffers, poisonDiffers)
	}
}

// TestStateTableStaleRowsReadNone: rows an earlier, longer program
// recorded read as ClaimNone when a later program's paths do not reach
// them — after a shorter program shrank the table, and after a program as
// long as the first one that is rejected before its paths get there.
func TestStateTableStaleRowsReadNone(t *testing.T) {
	k := newBenchKernel()
	long := dirtyProgram()
	short := sockProg(isa.Mov64Imm(isa.R0, 0), isa.Exit())
	// As long as long, and rejected at insn 1: no path reaches insn 2.
	insns := []isa.Instruction{isa.Mov64Imm(isa.R0, 0), isa.Mov64Reg(isa.R0, isa.R5)}
	for len(insns) < len(long.Insns)-1 {
		insns = append(insns, isa.Mov64Imm(isa.R0, 0))
	}
	cut := sockProg(append(insns, isa.Exit())...)

	cfg := k.config(nil)
	cfg.RecordStates = true
	ref := new(refStateTable)
	tab := &StateTable{shadow: ref}
	cfg.States = tab
	if _, err := Verify(long, cfg); err != nil {
		t.Fatalf("long program rejected: %v", err)
	}
	for i := 2; i < tab.NumInsns(); i++ {
		if live, _ := tab.LiveRow(i); live == 0 {
			t.Fatalf("long program: insn %d has no checkable claim; the rows must start dirty", i)
		}
	}
	if _, err := Verify(short, cfg); err != nil {
		t.Fatalf("short program rejected: %v", err)
	}
	if d := claimsDiff(tab, ref); d != "" {
		t.Fatalf("after the short program: %s", d)
	}
	if _, err := Verify(cut, cfg); err == nil {
		t.Fatal("program reading an uninitialized R5 was accepted")
	}
	if tab.NumInsns() != len(long.Insns) {
		t.Fatalf("table covers %d insns, want %d", tab.NumInsns(), len(long.Insns))
	}
	for i := 2; i < tab.NumInsns(); i++ {
		if live, _ := tab.LiveRow(i); live != 0 {
			t.Errorf("insn %d: live mask %#x, want 0", i, live)
		}
		for r := 0; r < isa.NumReg; r++ {
			if c := tab.Claim(i, r); c != (RegClaim{}) {
				t.Errorf("insn %d R%d: %v, want none", i, r, c)
			}
		}
	}
	if d := claimsDiff(tab, ref); d != "" {
		t.Errorf("after the rejected program: %s", d)
	}
	if d := liveDiff(tab); d != "" {
		t.Error(d)
	}
}
