package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Instruction is one decoded eBPF instruction. A BPF_LD_IMM64 occupies two
// encoded slots; in decoded form the 64-bit constant lives in Imm64 and the
// instruction still counts as two slots for jump-offset purposes (see
// Program.Slots).
type Instruction struct {
	Opcode uint8
	Dst    uint8
	Src    uint8
	Off    int16
	Imm    int32

	// Imm64 holds the full constant of a BPF_LD_IMM64. Its low 32 bits
	// always equal uint32(Imm).
	Imm64 uint64

	// Meta carries provenance used by rewrite passes. It is not encoded.
	Meta InsnMeta
}

// InsnMeta records where an instruction came from so later passes can make
// decisions (e.g. the sanitizer skips instructions emitted by the verifier's
// own rewrites, mirroring the paper's footprint-reduction rules).
type InsnMeta struct {
	// RewriteEmitted marks instructions inserted by a rewrite pass
	// (fixup, sanitizer) rather than by the original program.
	RewriteEmitted bool
	// Sanitized marks an original load/store that has already been
	// instrumented, so it is not instrumented twice.
	Sanitized bool
	// ProbeMem marks loads the verifier converted to exception-handled
	// probe reads (accesses through PTR_TO_BTF_ID). A faulting probe
	// read yields zero instead of oopsing, as in the kernel.
	ProbeMem bool
}

// IsWide reports whether the instruction occupies two encoded slots.
func (ins Instruction) IsWide() bool { return isWide(ins.Opcode) }

// Class returns the instruction's class bits.
func (ins Instruction) Class() uint8 { return Class(ins.Opcode) }

// IsExit reports whether the instruction is BPF_EXIT.
func (ins Instruction) IsExit() bool {
	return ins.Opcode == ClassJMP|EXIT
}

// IsCall reports whether the instruction is any kind of call.
func (ins Instruction) IsCall() bool { return isCall(ins.Opcode) }

// IsHelperCall reports whether the instruction calls a helper function
// (as opposed to a bpf-to-bpf or kfunc call).
func (ins Instruction) IsHelperCall() bool {
	return ins.IsCall() && ins.Src == 0
}

// IsPseudoCall reports whether the instruction is a bpf-to-bpf call.
func (ins Instruction) IsPseudoCall() bool {
	return ins.IsCall() && ins.Src == PseudoCall
}

// IsKfuncCall reports whether the instruction calls a kernel function.
func (ins Instruction) IsKfuncCall() bool {
	return ins.IsCall() && ins.Src == PseudoKfuncCall
}

// IsUncondJump reports whether the instruction is an unconditional jump.
func (ins Instruction) IsUncondJump() bool { return isUncondJump(ins.Opcode) }

// IsCondJump reports whether the instruction is a conditional jump.
func (ins Instruction) IsCondJump() bool { return isCondJump(ins.Opcode) }

// The opcode-level forms of the predicates above. Program.Validate uses
// them on an instruction in place: calling a value-receiver method
// through a pointer copies the whole 32-byte instruction first.

func isWide(opc uint8) bool { return opc == ClassLD|ModeIMM|SizeDW }

func isCall(opc uint8) bool { return opc == ClassJMP|CALL }

func isUncondJump(opc uint8) bool { return opc == ClassJMP|JA || opc == ClassJMP32|JA }

func isCondJump(opc uint8) bool {
	if !IsJmpClass(Class(opc)) {
		return false
	}
	op := Op(opc)
	return op != JA && op != CALL && op != EXIT
}

// IsMemLoad reports whether the instruction is a register load from memory
// (LDX with MEM or MEMSX mode).
func (ins Instruction) IsMemLoad() bool {
	return ins.Class() == ClassLDX && (Mode(ins.Opcode) == ModeMEM || Mode(ins.Opcode) == ModeMEMSX)
}

// IsMemStore reports whether the instruction stores to memory (ST or STX
// with MEM mode).
func (ins Instruction) IsMemStore() bool {
	c := ins.Class()
	return (c == ClassST || c == ClassSTX) && Mode(ins.Opcode) == ModeMEM
}

// IsAtomic reports whether the instruction is an atomic read-modify-write.
func (ins Instruction) IsAtomic() bool {
	return ins.Class() == ClassSTX && Mode(ins.Opcode) == ModeATOMIC
}

// AccessSize returns the width in bytes of a memory access instruction,
// or 0 if the instruction does not access memory.
func (ins Instruction) AccessSize() int {
	if ins.IsMemLoad() || ins.IsMemStore() || ins.IsAtomic() {
		return SizeBytes(Size(ins.Opcode))
	}
	return 0
}

// Encode appends the 8-byte (or 16-byte, for LD_IMM64) encoding of ins to
// buf and returns the extended slice.
func (ins Instruction) Encode(buf []byte) []byte {
	var b [InsnSize]byte
	b[0] = ins.Opcode
	b[1] = ins.Dst&0x0f | ins.Src<<4
	binary.LittleEndian.PutUint16(b[2:], uint16(ins.Off))
	if ins.IsWide() {
		binary.LittleEndian.PutUint32(b[4:], uint32(ins.Imm64))
		buf = append(buf, b[:]...)
		var hi [InsnSize]byte
		binary.LittleEndian.PutUint32(hi[4:], uint32(ins.Imm64>>32))
		return append(buf, hi[:]...)
	}
	binary.LittleEndian.PutUint32(b[4:], uint32(ins.Imm))
	return append(buf, b[:]...)
}

// ErrTruncated is returned by Decode when the byte stream ends mid
// instruction.
var ErrTruncated = errors.New("isa: truncated instruction stream")

// Decode parses one instruction from the front of buf and returns it along
// with the number of bytes consumed (8 or 16).
func Decode(buf []byte) (Instruction, int, error) {
	if len(buf) < InsnSize {
		return Instruction{}, 0, ErrTruncated
	}
	ins := Instruction{
		Opcode: buf[0],
		Dst:    buf[1] & 0x0f,
		Src:    buf[1] >> 4,
		Off:    int16(binary.LittleEndian.Uint16(buf[2:])),
		Imm:    int32(binary.LittleEndian.Uint32(buf[4:])),
	}
	if ins.IsWide() {
		if len(buf) < 2*InsnSize {
			return Instruction{}, 0, ErrTruncated
		}
		next := buf[InsnSize : 2*InsnSize]
		if next[0] != 0 || next[1] != 0 || next[2] != 0 || next[3] != 0 {
			return Instruction{}, 0, fmt.Errorf("isa: invalid ld_imm64 second slot")
		}
		hi := binary.LittleEndian.Uint32(next[4:])
		ins.Imm64 = uint64(uint32(ins.Imm)) | uint64(hi)<<32
		return ins, 2 * InsnSize, nil
	}
	return ins, InsnSize, nil
}

// String renders the instruction in kernel verifier-log style,
// e.g. "r1 = *(u64 *)(r10 -8)".
func (ins Instruction) String() string {
	return disasm(ins)
}

// Validate performs the basic structural checks the kernel applies in
// bpf_check before any state analysis: known opcode, register numbers in
// range, reserved fields zero. It mirrors the "early validation" the paper's
// generators must pass.
func (ins Instruction) Validate() error { return ins.validate() }

// validate is Validate on the instruction in place, which
// Program.Validate calls for every instruction without copying it.
func (ins *Instruction) validate() error {
	if ins.Dst > R10 && !(ins.Dst == R11 && ins.Meta.RewriteEmitted) {
		return fmt.Errorf("isa: invalid dst register r%d", ins.Dst)
	}
	if ins.Src > R10 && !(ins.Src == R11 && ins.Meta.RewriteEmitted) {
		// Pseudo src values in LD_IMM64 / CALL are checked below.
		if !(isWide(ins.Opcode) || isCall(ins.Opcode)) {
			return fmt.Errorf("isa: invalid src register r%d", ins.Src)
		}
	}
	switch Class(ins.Opcode) {
	case ClassALU, ClassALU64:
		return ins.validateALU()
	case ClassJMP, ClassJMP32:
		return ins.validateJmp()
	case ClassLD:
		return ins.validateLD()
	case ClassLDX:
		if Mode(ins.Opcode) != ModeMEM && Mode(ins.Opcode) != ModeMEMSX {
			return fmt.Errorf("isa: invalid ldx mode %#x", Mode(ins.Opcode))
		}
		if ins.Imm != 0 {
			return fmt.Errorf("isa: ldx with nonzero imm")
		}
	case ClassST:
		if Mode(ins.Opcode) != ModeMEM {
			return fmt.Errorf("isa: invalid st mode %#x", Mode(ins.Opcode))
		}
		if ins.Src != 0 {
			return fmt.Errorf("isa: st with nonzero src")
		}
	case ClassSTX:
		switch Mode(ins.Opcode) {
		case ModeMEM:
			if ins.Imm != 0 {
				return fmt.Errorf("isa: stx with nonzero imm")
			}
		case ModeATOMIC:
			if Size(ins.Opcode) != SizeW && Size(ins.Opcode) != SizeDW {
				return fmt.Errorf("isa: atomic op with invalid size")
			}
			switch ins.Imm &^ AtomicFetch {
			case AtomicAdd, AtomicOr, AtomicAnd, AtomicXor:
			default:
				if ins.Imm != AtomicXchg && ins.Imm != AtomicCmpXchg {
					return fmt.Errorf("isa: unknown atomic op %#x", ins.Imm)
				}
			}
		default:
			return fmt.Errorf("isa: invalid stx mode %#x", Mode(ins.Opcode))
		}
	}
	return nil
}

func (ins *Instruction) validateALU() error {
	op := Op(ins.Opcode)
	switch op {
	case ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd,
		ALULsh, ALURsh, ALUMod, ALUXor, ALUMov, ALUArsh:
		if Src(ins.Opcode) == SrcX && ins.Imm != 0 {
			return fmt.Errorf("isa: alu reg op with nonzero imm")
		}
		if Src(ins.Opcode) == SrcK && ins.Src != 0 {
			return fmt.Errorf("isa: alu imm op with nonzero src reg")
		}
		if ins.Off != 0 {
			// off=1 encodes signed div/mod in the v4 ISA; accept it there.
			if !((op == ALUDiv || op == ALUMod) && ins.Off == 1) &&
				!(op == ALUMov && Src(ins.Opcode) == SrcX && (ins.Off == 8 || ins.Off == 16 || ins.Off == 32)) {
				return fmt.Errorf("isa: alu op with invalid off %d", ins.Off)
			}
		}
	case ALUNeg:
		if ins.Src != 0 || ins.Imm != 0 || ins.Off != 0 {
			return fmt.Errorf("isa: neg with nonzero operands")
		}
	case ALUEnd:
		switch ins.Imm {
		case 16, 32, 64:
		default:
			return fmt.Errorf("isa: byte swap with invalid width %d", ins.Imm)
		}
	default:
		return fmt.Errorf("isa: unknown alu op %#x", op)
	}
	return nil
}

func (ins *Instruction) validateJmp() error {
	op := Op(ins.Opcode)
	switch op {
	case JA:
		if ins.Dst != 0 || ins.Src != 0 || ins.Imm != 0 {
			return fmt.Errorf("isa: ja with nonzero operands")
		}
	case CALL:
		if Class(ins.Opcode) == ClassJMP32 {
			return fmt.Errorf("isa: call in jmp32 class")
		}
		switch ins.Src {
		case 0, PseudoCall, PseudoKfuncCall:
		default:
			return fmt.Errorf("isa: call with invalid src %d", ins.Src)
		}
		if ins.Dst != 0 || ins.Off != 0 {
			return fmt.Errorf("isa: call with nonzero dst/off")
		}
	case EXIT:
		if Class(ins.Opcode) == ClassJMP32 {
			return fmt.Errorf("isa: exit in jmp32 class")
		}
		if ins.Dst != 0 || ins.Src != 0 || ins.Off != 0 || ins.Imm != 0 {
			return fmt.Errorf("isa: exit with nonzero operands")
		}
	case JEQ, JGT, JGE, JSET, JNE, JSGT, JSGE, JLT, JLE, JSLT, JSLE:
		if Src(ins.Opcode) == SrcX && ins.Imm != 0 {
			return fmt.Errorf("isa: jmp reg op with nonzero imm")
		}
		if Src(ins.Opcode) == SrcK && ins.Src != 0 {
			return fmt.Errorf("isa: jmp imm op with nonzero src reg")
		}
	default:
		return fmt.Errorf("isa: unknown jmp op %#x", op)
	}
	return nil
}

func (ins *Instruction) validateLD() error {
	switch Mode(ins.Opcode) {
	case ModeIMM:
		if Size(ins.Opcode) != SizeDW {
			return fmt.Errorf("isa: ld imm with size != dw")
		}
		switch ins.Src {
		case 0, PseudoMapFD, PseudoMapValue, PseudoBTFID, PseudoFunc:
		default:
			return fmt.Errorf("isa: ld_imm64 with invalid pseudo src %d", ins.Src)
		}
	case ModeABS, ModeIND:
		if ins.Dst != 0 {
			return fmt.Errorf("isa: legacy packet load with nonzero dst")
		}
	default:
		return fmt.Errorf("isa: invalid ld mode %#x", Mode(ins.Opcode))
	}
	return nil
}
