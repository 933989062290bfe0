// Package isa implements the eBPF instruction set: opcode constants,
// instruction encoding and decoding (including the two-slot BPF_LD_IMM64
// form), typed constructors, a program container, and a disassembler whose
// output mirrors the kernel verifier log format.
//
// The package is the foundation of the repository: the generator emits
// isa.Instruction values, the verifier analyzes them, the sanitizer rewrites
// them, and the interpreter executes them.
package isa

import "fmt"

// InsnSize is the encoded size of one eBPF instruction in bytes.
const InsnSize = 8

// Instruction classes (low three bits of the opcode).
const (
	ClassLD    uint8 = 0x00 // non-standard load (imm64, abs, ind)
	ClassLDX   uint8 = 0x01 // load from memory into register
	ClassST    uint8 = 0x02 // store immediate to memory
	ClassSTX   uint8 = 0x03 // store register to memory
	ClassALU   uint8 = 0x04 // 32-bit arithmetic
	ClassJMP   uint8 = 0x05 // 64-bit jumps, call, exit
	ClassJMP32 uint8 = 0x06 // 32-bit jumps
	ClassALU64 uint8 = 0x07 // 64-bit arithmetic
)

// Size modifiers for load/store classes (bits 3-4).
const (
	SizeW  uint8 = 0x00 // 4 bytes
	SizeH  uint8 = 0x08 // 2 bytes
	SizeB  uint8 = 0x10 // 1 byte
	SizeDW uint8 = 0x18 // 8 bytes
)

// Mode modifiers for load/store classes (bits 5-7).
const (
	ModeIMM    uint8 = 0x00 // used with ClassLD for the 16-byte imm64 load
	ModeABS    uint8 = 0x20 // legacy packet access, absolute
	ModeIND    uint8 = 0x40 // legacy packet access, indirect
	ModeMEM    uint8 = 0x60 // ordinary memory access
	ModeMEMSX  uint8 = 0x80 // sign-extending memory load (v4 ISA)
	ModeATOMIC uint8 = 0xc0 // atomic read-modify-write
)

// Source operand flag for ALU/JMP classes (bit 3).
const (
	SrcK uint8 = 0x00 // use the 32-bit immediate
	SrcX uint8 = 0x08 // use the source register
)

// ALU operations (bits 4-7).
const (
	ALUAdd  uint8 = 0x00
	ALUSub  uint8 = 0x10
	ALUMul  uint8 = 0x20
	ALUDiv  uint8 = 0x30
	ALUOr   uint8 = 0x40
	ALUAnd  uint8 = 0x50
	ALULsh  uint8 = 0x60
	ALURsh  uint8 = 0x70
	ALUNeg  uint8 = 0x80
	ALUMod  uint8 = 0x90
	ALUXor  uint8 = 0xa0
	ALUMov  uint8 = 0xb0
	ALUArsh uint8 = 0xc0
	ALUEnd  uint8 = 0xd0 // byte swap
)

// Jump operations (bits 4-7).
const (
	JA   uint8 = 0x00
	JEQ  uint8 = 0x10
	JGT  uint8 = 0x20
	JGE  uint8 = 0x30
	JSET uint8 = 0x40
	JNE  uint8 = 0x50
	JSGT uint8 = 0x60
	JSGE uint8 = 0x70
	CALL uint8 = 0x80
	EXIT uint8 = 0x90
	JLT  uint8 = 0xa0
	JLE  uint8 = 0xb0
	JSLT uint8 = 0xc0
	JSLE uint8 = 0xd0
)

// Atomic operation immediates (stored in Imm of a ModeATOMIC instruction).
const (
	AtomicAdd     int32 = 0x00
	AtomicOr      int32 = 0x40
	AtomicAnd     int32 = 0x50
	AtomicXor     int32 = 0xa0
	AtomicFetch   int32 = 0x01 // flag OR-ed onto the above
	AtomicXchg    int32 = 0xe1
	AtomicCmpXchg int32 = 0xf1
)

// Pseudo source-register values used inside BPF_LD_IMM64 instructions.
const (
	PseudoMapFD    uint8 = 1 // imm is a map file descriptor
	PseudoMapValue uint8 = 2 // imm is a map fd, next imm an offset into the value
	PseudoBTFID    uint8 = 3 // imm is a BTF type id of a kernel variable
	PseudoFunc     uint8 = 4 // imm is an instruction offset of a bpf function
)

// Pseudo source-register values used inside call instructions.
const (
	PseudoCall      uint8 = 1 // bpf-to-bpf call, imm is insn delta
	PseudoKfuncCall uint8 = 2 // call to a kernel function by BTF id
)

// Register numbers. R0..R10 are architecturally visible; R11 (AuxReg) is an
// internal register available only to rewrite passes, exactly like the
// kernel's BPF_REG_AX.
const (
	R0  uint8 = 0
	R1  uint8 = 1
	R2  uint8 = 2
	R3  uint8 = 3
	R4  uint8 = 4
	R5  uint8 = 5
	R6  uint8 = 6
	R7  uint8 = 7
	R8  uint8 = 8
	R9  uint8 = 9
	R10 uint8 = 10 // frame pointer, read-only
	R11 uint8 = 11 // auxiliary register, invisible to programs

	// MaxReg is the number of architecturally visible registers.
	MaxReg = 11
	// NumReg is the number of registers including the auxiliary one.
	NumReg = 12
)

// Program-level limits mirroring the kernel's.
const (
	// StackSize is the fixed eBPF stack size in bytes.
	StackSize = 512
	// MaxInsnsUnpriv is the instruction limit for unprivileged loads.
	MaxInsnsUnpriv = 4096
	// MaxInsns is the instruction limit for privileged loads.
	MaxInsns = 1000000
)

// Class extracts the instruction class from an opcode.
func Class(op uint8) uint8 { return op & 0x07 }

// Size extracts the size modifier from a load/store opcode.
func Size(op uint8) uint8 { return op & 0x18 }

// Mode extracts the mode modifier from a load/store opcode.
func Mode(op uint8) uint8 { return op & 0xe0 }

// Op extracts the operation from an ALU/JMP opcode.
func Op(op uint8) uint8 { return op & 0xf0 }

// Src extracts the source-operand flag from an ALU/JMP opcode.
func Src(op uint8) uint8 { return op & 0x08 }

// SizeBytes converts a size modifier to its width in bytes.
func SizeBytes(sz uint8) int {
	switch sz {
	case SizeB:
		return 1
	case SizeH:
		return 2
	case SizeW:
		return 4
	case SizeDW:
		return 8
	}
	return 0
}

// SizeFromBytes converts a byte width to the size modifier.
// It panics on widths other than 1, 2, 4 and 8.
func SizeFromBytes(n int) uint8 {
	switch n {
	case 1:
		return SizeB
	case 2:
		return SizeH
	case 4:
		return SizeW
	case 8:
		return SizeDW
	}
	panic(fmt.Sprintf("isa: invalid access width %d", n))
}

// IsJmpClass reports whether the class is a jump.
func IsJmpClass(class uint8) bool { return class == ClassJMP || class == ClassJMP32 }

var classNames = map[uint8]string{
	ClassLD: "ld", ClassLDX: "ldx", ClassST: "st", ClassSTX: "stx",
	ClassALU: "alu32", ClassJMP: "jmp", ClassJMP32: "jmp32", ClassALU64: "alu64",
}

// ClassName returns a short mnemonic for an instruction class.
func ClassName(class uint8) string {
	if n, ok := classNames[class&0x07]; ok {
		return n
	}
	return fmt.Sprintf("class(%#x)", class)
}

var aluNames = map[uint8]string{
	ALUAdd: "+=", ALUSub: "-=", ALUMul: "*=", ALUDiv: "/=",
	ALUOr: "|=", ALUAnd: "&=", ALULsh: "<<=", ALURsh: ">>=",
	ALUMod: "%=", ALUXor: "^=", ALUMov: "=", ALUArsh: "s>>=",
}

var jmpNames = map[uint8]string{
	JEQ: "==", JGT: ">", JGE: ">=", JSET: "&", JNE: "!=",
	JSGT: "s>", JSGE: "s>=", JLT: "<", JLE: "<=", JSLT: "s<", JSLE: "s<=",
}
