package isa

import (
	"fmt"
	"math/rand"
	"testing"
)

// validateRef is the Program.Validate this package shipped before the
// start-slot bitmap: it zeroes two slot tables per call and checks each
// instruction through a by-value copy. The differential test requires
// the same verdict and error text from the current one.
func validateRef(p *Program, maxInsns int) error {
	if len(p.Insns) == 0 {
		return ErrNoInsns
	}
	n := len(p.Insns)
	slotOf := make([]int32, 0, n)
	slots := 0
	for _, ins := range p.Insns {
		slotOf = append(slotOf, int32(slots))
		slots++
		if ins.IsWide() {
			slots++
		}
	}
	if slots > maxInsns {
		return fmt.Errorf("isa: program has %d slots, limit %d", slots, maxInsns)
	}
	idxOf := make([]int32, slots)
	for i := range p.Insns {
		idxOf[slotOf[i]] = int32(i) + 1
	}
	for i, ins := range p.Insns {
		if err := ins.Validate(); err != nil {
			return fmt.Errorf("insn %d: %w", i, err)
		}
		if ins.IsCondJump() || ins.IsUncondJump() {
			tgt := int(slotOf[i]) + 1 + int(ins.Off)
			if tgt < 0 || tgt >= slots {
				return fmt.Errorf("insn %d: jump target slot %d out of range [0,%d)", i, tgt, slots)
			}
			if idxOf[tgt] == 0 {
				return fmt.Errorf("insn %d: jump into the middle of ld_imm64", i)
			}
		}
		if ins.IsPseudoCall() {
			tgt := int(slotOf[i]) + 1 + int(ins.Imm)
			if tgt < 0 || tgt >= slots || idxOf[tgt] == 0 {
				return fmt.Errorf("insn %d: pseudo call target %d out of range", i, tgt)
			}
		}
	}
	last := p.Insns[len(p.Insns)-1]
	if !last.IsExit() && !last.IsUncondJump() {
		return fmt.Errorf("isa: last insn is not an exit or jump")
	}
	return nil
}

// randomValidateProgram draws a program that is structurally valid more
// often than not: mostly well-formed instructions, LD_IMM64s whose second
// slot jumps may land in, jumps and pseudo calls with small offsets, and
// now and then a raw opcode or a register out of range.
func randomValidateProgram(r *rand.Rand, n int) *Program {
	p := &Program{Type: ProgTypeSocketFilter}
	for i := 0; i < n; i++ {
		var ins Instruction
		switch r.Intn(8) {
		case 0:
			ins = LoadImm64(uint8(r.Intn(10)), r.Uint64())
		case 1:
			ins = JumpImm(JEQ, uint8(r.Intn(10)), int32(r.Intn(8)), int16(r.Intn(2*n+4)-n-2))
		case 2:
			ins = JumpA(int16(r.Intn(2*n+4) - n - 2))
		case 3:
			ins = CallPseudo(int32(r.Intn(2*n+4) - n - 2))
		case 4:
			ins = Instruction{Opcode: uint8(r.Intn(256)), Dst: uint8(r.Intn(12)), Src: uint8(r.Intn(12)),
				Off: int16(r.Intn(3) - 1), Imm: int32(r.Intn(3) - 1)}
		default:
			ins = Alu64Imm(ALUAdd, uint8(r.Intn(11)), int32(r.Intn(100)))
		}
		p.Insns = append(p.Insns, ins)
	}
	if r.Intn(4) != 0 {
		p.Insns = append(p.Insns, Exit())
	}
	return p
}

// TestValidateMatchesReference: Program.Validate gives validateRef's
// verdict and error text, for every slot limit around the program's own
// slot count, on programs large enough to leave the fixed bitmap.
func TestValidateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	errs := 0
	for trial := 0; trial < 4000; trial++ {
		n := 1 + r.Intn(40)
		if trial%50 == 0 {
			n = 1020 + r.Intn(60) // up to 2 160 slots
		}
		p := randomValidateProgram(r, n)
		for _, limit := range []int{MaxInsns, p.Slots(), p.Slots() - 1} {
			got, want := p.Validate(limit), validateRef(p, limit)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d, limit %d: Validate = %v, reference %v\n%s", trial, limit, got, want, p)
			}
			if got != nil {
				errs++
			}
		}
	}
	if errs == 0 || errs == 3*4000 {
		t.Fatalf("%d of %d validations failed; want a mix", errs, 3*4000)
	}
}

// BenchmarkProgramValidate validates one 120-instruction program with
// LD_IMM64s, forward jumps and a pseudo call, the shape a generated
// program has.
func BenchmarkProgramValidate(b *testing.B) {
	p := &Program{Type: ProgTypeSocketFilter}
	p.Insns = append(p.Insns, CallPseudo(int32(1)), Exit())
	for i := 0; len(p.Insns) < 117; i++ {
		switch i % 6 {
		case 0:
			p.Insns = append(p.Insns, LoadImm64(R2, uint64(i)<<40))
		case 1:
			p.Insns = append(p.Insns, JumpImm(JGT, R2, int32(i), 2))
		case 2:
			p.Insns = append(p.Insns, LoadMem(SizeDW, R3, R10, -8))
		default:
			p.Insns = append(p.Insns, Alu64Imm(ALUAdd, R0, int32(i)))
		}
	}
	p.Insns = append(p.Insns, Mov64Imm(R0, 0), Mov64Imm(R1, 0), Exit())
	if err := p.Validate(MaxInsns); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(MaxInsns); err != nil {
			b.Fatal(err)
		}
	}
}
