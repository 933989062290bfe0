package isa

import (
	"errors"
	"fmt"
	"strings"
)

// ProgramType identifies the eBPF program type, which controls the context
// layout, the helper set and the attachable hooks.
type ProgramType int

// Program types modeled by the kernel facade. The set mirrors the types the
// paper's generator exercises.
const (
	ProgTypeUnspec ProgramType = iota
	ProgTypeSocketFilter
	ProgTypeKprobe
	ProgTypeTracepoint
	ProgTypeXDP
	ProgTypePerfEvent
	ProgTypeRawTracepoint
	ProgTypeSchedCLS
)

var progTypeNames = map[ProgramType]string{
	ProgTypeUnspec:        "unspec",
	ProgTypeSocketFilter:  "socket_filter",
	ProgTypeKprobe:        "kprobe",
	ProgTypeTracepoint:    "tracepoint",
	ProgTypeXDP:           "xdp",
	ProgTypePerfEvent:     "perf_event",
	ProgTypeRawTracepoint: "raw_tracepoint",
	ProgTypeSchedCLS:      "sched_cls",
}

// String returns the lowercase kernel-style name of the program type.
func (t ProgramType) String() string {
	if n, ok := progTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("prog_type(%d)", int(t))
}

// AllProgramTypes lists every concrete program type, for generators.
var AllProgramTypes = []ProgramType{
	ProgTypeSocketFilter, ProgTypeKprobe, ProgTypeTracepoint,
	ProgTypeXDP, ProgTypePerfEvent, ProgTypeRawTracepoint, ProgTypeSchedCLS,
}

// ParseProgramType maps a concrete program type's name (String) onto the
// type. The error for an unknown name lists the valid ones.
func ParseProgramType(s string) (ProgramType, error) {
	names := make([]string, len(AllProgramTypes))
	for i, t := range AllProgramTypes {
		if t.String() == s {
			return t, nil
		}
		names[i] = t.String()
	}
	return 0, fmt.Errorf("isa: unknown program type %q (valid: %s)", s, strings.Join(names, ", "))
}

// Program is a sequence of decoded instructions plus load-time attributes.
type Program struct {
	Insns []Instruction
	Type  ProgramType
	// Name is an optional diagnostic label.
	Name string
	// AttachTo names the hook the program will be attached to (tracepoint
	// name, kprobe symbol, ...). Some verifier checks depend on it.
	AttachTo string
	// GPLCompatible gates gpl_only helpers.
	GPLCompatible bool
}

// Len returns the number of decoded instructions.
func (p *Program) Len() int { return len(p.Insns) }

// Slots returns the number of encoded instruction slots, counting each
// LD_IMM64 as two. Jump offsets are expressed in slots.
func (p *Program) Slots() int {
	n := 0
	for _, ins := range p.Insns {
		n++
		if ins.IsWide() {
			n++
		}
	}
	return n
}

// SlotOf returns the encoded slot index of decoded instruction i.
func (p *Program) SlotOf(i int) int {
	n := 0
	for j := 0; j < i && j < len(p.Insns); j++ {
		n++
		if p.Insns[j].IsWide() {
			n++
		}
	}
	return n
}

// IndexOfSlot returns the decoded instruction index occupying encoded slot
// s, or -1 if s is out of range or points at the second half of an
// LD_IMM64.
func (p *Program) IndexOfSlot(s int) int {
	n := 0
	for i, ins := range p.Insns {
		if n == s {
			return i
		}
		n++
		if ins.IsWide() {
			n++
			if n == s+1 && s == n-1 {
				return -1
			}
		}
		if n > s {
			return -1
		}
	}
	return -1
}

// Encode returns the full little-endian byte encoding of the program.
func (p *Program) Encode() []byte {
	buf := make([]byte, 0, p.Slots()*InsnSize)
	for _, ins := range p.Insns {
		buf = ins.Encode(buf)
	}
	return buf
}

// DecodeProgram parses an encoded instruction stream.
func DecodeProgram(buf []byte) (*Program, error) {
	if len(buf)%InsnSize != 0 {
		return nil, fmt.Errorf("isa: program size %d not a multiple of %d", len(buf), InsnSize)
	}
	p := &Program{}
	for len(buf) > 0 {
		ins, n, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		p.Insns = append(p.Insns, ins)
		buf = buf[n:]
	}
	return p, nil
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := *p
	q.Insns = make([]Instruction, len(p.Insns))
	copy(q.Insns, p.Insns)
	return &q
}

// ErrNoInsns is returned when validating an empty program.
var ErrNoInsns = errors.New("isa: program has no instructions")

// Validate applies the structural checks to every instruction, verifies the
// final instruction is reachable as an exit, and checks jump targets stay in
// bounds. These are the "basic properties" the paper's init/end sections
// exist to satisfy.
func (p *Program) Validate(maxInsns int) error {
	n := len(p.Insns)
	if n == 0 {
		return ErrNoInsns
	}
	// starts marks the slot where each instruction begins, so a jump or
	// call target is checked with one bit test: a slot past the end or in
	// the second half of an LD_IMM64 is unmarked. The fixed 256-byte
	// bitmap covers 2048 slots, more than generated programs use, and
	// only the words the program reaches are written.
	var buf [32]uint64
	starts := buf[:]
	if 2*n > 64*len(buf) {
		starts = make([]uint64, (2*n+63)/64)
	}
	slots := 0
	for i := range p.Insns {
		starts[slots/64] |= 1 << (slots % 64)
		slots++
		if isWide(p.Insns[i].Opcode) {
			slots++
		}
	}
	if slots > maxInsns {
		return fmt.Errorf("isa: program has %d slots, limit %d", slots, maxInsns)
	}
	isStart := func(s int) bool { return starts[s/64]&(1<<(s%64)) != 0 }
	slot := 0
	for i := range p.Insns {
		ins := &p.Insns[i] // in place: no copy of the 32-byte instruction
		if err := ins.validate(); err != nil {
			return fmt.Errorf("insn %d: %w", i, err)
		}
		if isCondJump(ins.Opcode) || isUncondJump(ins.Opcode) {
			tgt := slot + 1 + int(ins.Off)
			if tgt < 0 || tgt >= slots {
				return fmt.Errorf("insn %d: jump target slot %d out of range [0,%d)", i, tgt, slots)
			}
			if !isStart(tgt) {
				return fmt.Errorf("insn %d: jump into the middle of ld_imm64", i)
			}
		}
		if isCall(ins.Opcode) && ins.Src == PseudoCall {
			tgt := slot + 1 + int(ins.Imm)
			if tgt < 0 || tgt >= slots || !isStart(tgt) {
				return fmt.Errorf("insn %d: pseudo call target %d out of range", i, tgt)
			}
		}
		slot++
		if isWide(ins.Opcode) {
			slot++
		}
	}
	last := p.Insns[len(p.Insns)-1]
	if !last.IsExit() && !last.IsUncondJump() {
		return fmt.Errorf("isa: last insn is not an exit or jump")
	}
	return nil
}

// String disassembles the whole program, one instruction per line, prefixed
// with its slot index, matching verifier-log style.
func (p *Program) String() string {
	var sb strings.Builder
	slot := 0
	for _, ins := range p.Insns {
		fmt.Fprintf(&sb, "%4d: %s\n", slot, ins)
		slot++
		if ins.IsWide() {
			slot++
		}
	}
	return sb.String()
}
