// Package asm implements a textual assembler for the eBPF dialect this
// repository's disassembler emits, so programs can be written, stored and
// replayed as text. The syntax is the kernel verifier-log style:
//
//	r0 = 42
//	r1 = r10
//	r1 += -8
//	*(u64 *)(r10 -8) = 0
//	r2 = *(u32 *)(r1 +4)
//	if r0 == 0 goto +2
//	if r1 s< r2 goto end     ; labels work too
//	call #1                  ; helper by id
//	call kfunc#103           ; kernel function by BTF id
//	r1 = map_fd(3)           ; pseudo map-fd load
//	lock *(u64 *)(r1 +0) += r2
//	end: exit
//
// Lines may carry `;` or `//` comments. Jump targets are either relative
// slot offsets (`goto +2`) or labels (`goto retry`), which the assembler
// resolves. Assemble/Disassemble round-trips: the output of
// isa.Program.String() assembles back to the same instructions.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Error reports an assembly failure with its line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// Assemble parses source text into a program. The program type and other
// attributes are left at their zero values for the caller to set.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{labels: make(map[string]int)}
	// Pass 1: strip comments/labels, compute slot offsets.
	var lines []line
	slot := 0
	for num, raw := range strings.Split(src, "\n") {
		text := stripComment(raw)
		for {
			// A line may start with one or more labels.
			lbl, rest, ok := splitLabel(text)
			if !ok {
				break
			}
			// Numeric "labels" are the disassembler's slot prefixes;
			// they are consumed but not recorded.
			if lbl != "" {
				if _, dup := a.labels[lbl]; dup {
					return nil, &Error{Line: num + 1, Msg: fmt.Sprintf("duplicate label %q", lbl)}
				}
				a.labels[lbl] = slot
			}
			text = rest
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		ln := line{num: num + 1, text: text, slot: slot}
		lines = append(lines, ln)
		if strings.HasPrefix(text, "r") && strings.Contains(text, " ll") ||
			strings.Contains(text, "map_fd(") || strings.Contains(text, "map_value(") ||
			strings.Contains(text, "btf_id(") {
			slot += 2
		} else {
			slot++
		}
	}
	// Pass 2: encode.
	p := &isa.Program{}
	for _, ln := range lines {
		ins, err := a.parseInsn(ln)
		if err != nil {
			return nil, err
		}
		p.Insns = append(p.Insns, ins)
	}
	return p, nil
}

type line struct {
	num  int
	text string
	slot int
}

type assembler struct {
	labels map[string]int
}

func stripComment(s string) string {
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

// splitLabel splits "name: rest" into (name, rest, true). The
// disassembler's "  12: insn" slot prefixes are treated as labels too and
// simply ignored by virtue of being numeric.
func splitLabel(s string) (string, string, bool) {
	t := strings.TrimSpace(s)
	i := strings.Index(t, ":")
	if i <= 0 {
		return "", "", false
	}
	name := strings.TrimSpace(t[:i])
	for _, r := range name {
		if !isIdentRune(r) {
			return "", "", false
		}
	}
	// Numeric "labels" are the disassembler's slot numbers: discard.
	if _, err := strconv.Atoi(name); err == nil {
		return "", t[i+1:], true
	}
	return name, t[i+1:], true
}

func isIdentRune(r rune) bool {
	return r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
}

func (a *assembler) errf(ln line, format string, args ...interface{}) error {
	return &Error{Line: ln.num, Msg: fmt.Sprintf(format, args...)}
}

// parseInsn dispatches on the line's overall shape.
func (a *assembler) parseInsn(ln line) (isa.Instruction, error) {
	t := ln.text
	switch {
	case t == "exit":
		return isa.Exit(), nil
	case strings.HasPrefix(t, "goto "):
		off, err := a.jumpOffset(ln, strings.TrimSpace(t[5:]), 0)
		if err != nil {
			return isa.Instruction{}, err
		}
		return isa.JumpA(off), nil
	case strings.HasPrefix(t, "if "):
		return a.parseCondJump(ln, t[3:])
	case strings.HasPrefix(t, "call "):
		return a.parseCall(ln, strings.TrimSpace(t[5:]))
	case strings.HasPrefix(t, "lock "):
		return a.parseAtomic(ln, strings.TrimSpace(t[5:]))
	case strings.HasPrefix(t, "*("):
		return a.parseStore(ln, t)
	}
	return a.parseALUOrLoad(ln, t)
}

// reg parses "r4" or "w4"; wide reports the w-form.
func parseReg(tok string) (reg uint8, w bool, ok bool) {
	if len(tok) < 2 {
		return 0, false, false
	}
	if tok[0] != 'r' && tok[0] != 'w' {
		return 0, false, false
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n > 11 {
		return 0, false, false
	}
	return uint8(n), tok[0] == 'w', true
}

func parseImm(tok string) (int64, bool) {
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		// Allow large unsigned hex constants.
		u, uerr := strconv.ParseUint(tok, 0, 64)
		if uerr != nil {
			return 0, false
		}
		return int64(u), true
	}
	return v, true
}

// jumpOffset resolves "+N", "-N" or a label into a slot-relative offset
// for an instruction at ln.slot with the given extra width.
func (a *assembler) jumpOffset(ln line, tok string, width int) (int16, error) {
	if strings.HasPrefix(tok, "+") || strings.HasPrefix(tok, "-") {
		v, err := strconv.Atoi(tok)
		if err != nil {
			return 0, a.errf(ln, "bad jump offset %q", tok)
		}
		return int16(v), nil
	}
	tgt, ok := a.labels[tok]
	if !ok {
		return 0, a.errf(ln, "unknown label %q", tok)
	}
	return int16(tgt - (ln.slot + 1 + width)), nil
}

var condOps = map[string]uint8{
	"==": isa.JEQ, "!=": isa.JNE, ">": isa.JGT, ">=": isa.JGE,
	"<": isa.JLT, "<=": isa.JLE, "s>": isa.JSGT, "s>=": isa.JSGE,
	"s<": isa.JSLT, "s<=": isa.JSLE, "&": isa.JSET,
}

func (a *assembler) parseCondJump(ln line, rest string) (isa.Instruction, error) {
	// Shape: "<dst> <op> <src|imm> goto <target>"
	gi := strings.LastIndex(rest, "goto ")
	if gi < 0 {
		return isa.Instruction{}, a.errf(ln, "conditional jump without goto")
	}
	target := strings.TrimSpace(rest[gi+5:])
	fields := strings.Fields(strings.TrimSpace(rest[:gi]))
	if len(fields) != 3 {
		return isa.Instruction{}, a.errf(ln, "malformed condition %q", rest[:gi])
	}
	dst, w, ok := parseReg(fields[0])
	if !ok {
		return isa.Instruction{}, a.errf(ln, "bad register %q", fields[0])
	}
	op, ok := condOps[fields[1]]
	if !ok {
		return isa.Instruction{}, a.errf(ln, "unknown comparison %q", fields[1])
	}
	off, err := a.jumpOffset(ln, target, 0)
	if err != nil {
		return isa.Instruction{}, err
	}
	if src, _, isReg := parseReg(fields[2]); isReg {
		if w {
			return isa.Jump32Reg(op, dst, src, off), nil
		}
		return isa.JumpReg(op, dst, src, off), nil
	}
	imm, ok := parseImm(fields[2])
	if !ok {
		return isa.Instruction{}, a.errf(ln, "bad operand %q", fields[2])
	}
	if w {
		return isa.Jump32Imm(op, dst, int32(imm), off), nil
	}
	return isa.JumpImm(op, dst, int32(imm), off), nil
}

func (a *assembler) parseCall(ln line, rest string) (isa.Instruction, error) {
	switch {
	case strings.HasPrefix(rest, "#"):
		id, ok := parseImm(rest[1:])
		if !ok {
			return isa.Instruction{}, a.errf(ln, "bad helper id %q", rest)
		}
		return isa.Call(int32(id)), nil
	case strings.HasPrefix(rest, "kfunc#"):
		id, ok := parseImm(rest[6:])
		if !ok {
			return isa.Instruction{}, a.errf(ln, "bad kfunc id %q", rest)
		}
		return isa.CallKfunc(int32(id)), nil
	case strings.HasPrefix(rest, "pc"):
		// Pseudo call: "pc+3" or "pc<label>".
		tok := rest[2:]
		if strings.HasPrefix(tok, "+") || strings.HasPrefix(tok, "-") {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return isa.Instruction{}, a.errf(ln, "bad call delta %q", tok)
			}
			return isa.CallPseudo(int32(v)), nil
		}
		off, err := a.jumpOffset(ln, tok, 0)
		if err != nil {
			return isa.Instruction{}, err
		}
		return isa.CallPseudo(int32(off)), nil
	}
	return isa.Instruction{}, a.errf(ln, "malformed call %q", rest)
}

// memRef parses "*(u32 *)(r1 +4)" returning size modifier, sign-extension
// flag, base register and offset, plus the remainder after the reference.
func parseMemRef(s string) (size uint8, signed bool, base uint8, off int16, rest string, err error) {
	if !strings.HasPrefix(s, "*(") {
		return 0, false, 0, 0, "", fmt.Errorf("not a memory reference")
	}
	ci := strings.Index(s, "*)(")
	if ci < 0 {
		return 0, false, 0, 0, "", fmt.Errorf("malformed memory reference")
	}
	tyTok := strings.TrimSpace(s[2:ci])
	switch tyTok {
	case "u8":
		size = isa.SizeB
	case "u16":
		size = isa.SizeH
	case "u32":
		size = isa.SizeW
	case "u64":
		size = isa.SizeDW
	case "s8":
		size, signed = isa.SizeB, true
	case "s16":
		size, signed = isa.SizeH, true
	case "s32":
		size, signed = isa.SizeW, true
	default:
		return 0, false, 0, 0, "", fmt.Errorf("bad access type %q", tyTok)
	}
	innerStart := ci + 3
	rel := strings.Index(s[innerStart:], ")")
	if rel < 0 {
		return 0, false, 0, 0, "", fmt.Errorf("unterminated address")
	}
	close := innerStart + rel
	inner := s[innerStart:close]
	fields := strings.Fields(inner)
	if len(fields) != 2 {
		return 0, false, 0, 0, "", fmt.Errorf("malformed address %q", inner)
	}
	b, _, ok := parseReg(fields[0])
	if !ok {
		return 0, false, 0, 0, "", fmt.Errorf("bad base register %q", fields[0])
	}
	o, ok := parseImm(fields[1])
	if !ok {
		return 0, false, 0, 0, "", fmt.Errorf("bad offset %q", fields[1])
	}
	return size, signed, b, int16(o), strings.TrimSpace(s[close+1:]), nil
}

func (a *assembler) parseStore(ln line, t string) (isa.Instruction, error) {
	size, signed, base, off, rest, err := parseMemRef(t)
	if err != nil {
		return isa.Instruction{}, a.errf(ln, "%v", err)
	}
	if signed {
		return isa.Instruction{}, a.errf(ln, "signed store is invalid")
	}
	if !strings.HasPrefix(rest, "=") {
		return isa.Instruction{}, a.errf(ln, "store without '='")
	}
	val := strings.TrimSpace(rest[1:])
	if src, _, isReg := parseReg(val); isReg {
		return isa.StoreMem(size, base, src, off), nil
	}
	imm, ok := parseImm(val)
	if !ok {
		return isa.Instruction{}, a.errf(ln, "bad store value %q", val)
	}
	return isa.StoreImm(size, base, off, int32(imm)), nil
}

func (a *assembler) parseAtomic(ln line, t string) (isa.Instruction, error) {
	size, _, base, off, rest, err := parseMemRef(t)
	if err != nil {
		return isa.Instruction{}, a.errf(ln, "%v", err)
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return isa.Instruction{}, a.errf(ln, "malformed atomic %q", rest)
	}
	src, _, ok := parseReg(fields[1])
	if !ok {
		return isa.Instruction{}, a.errf(ln, "bad atomic operand %q", fields[1])
	}
	ops := map[string]int32{
		"+=": isa.AtomicAdd, "|=": isa.AtomicOr, "&=": isa.AtomicAnd, "^=": isa.AtomicXor,
		"+=fetch": isa.AtomicAdd | isa.AtomicFetch, "|=fetch": isa.AtomicOr | isa.AtomicFetch,
		"&=fetch": isa.AtomicAnd | isa.AtomicFetch, "^=fetch": isa.AtomicXor | isa.AtomicFetch,
		"xchg": isa.AtomicXchg, "cmpxchg": isa.AtomicCmpXchg,
	}
	op, ok := ops[fields[0]]
	if !ok {
		return isa.Instruction{}, a.errf(ln, "unknown atomic op %q", fields[0])
	}
	return isa.Atomic(size, base, src, off, op), nil
}

var aluOps = map[string]uint8{
	"+=": isa.ALUAdd, "-=": isa.ALUSub, "*=": isa.ALUMul, "/=": isa.ALUDiv,
	"|=": isa.ALUOr, "&=": isa.ALUAnd, "<<=": isa.ALULsh, ">>=": isa.ALURsh,
	"%=": isa.ALUMod, "^=": isa.ALUXor, "s>>=": isa.ALUArsh,
}

func (a *assembler) parseALUOrLoad(ln line, t string) (isa.Instruction, error) {
	fields := strings.Fields(t)
	if len(fields) < 3 {
		return isa.Instruction{}, a.errf(ln, "unrecognized instruction %q", t)
	}
	dst, w, ok := parseReg(fields[0])
	if !ok {
		return isa.Instruction{}, a.errf(ln, "bad register %q", fields[0])
	}
	opTok := fields[1]
	rest := strings.TrimSpace(t[len(fields[0])+1+len(opTok):])

	if opTok == "=" {
		return a.parseAssign(ln, dst, w, rest)
	}
	op, ok := aluOps[opTok]
	if !ok {
		return isa.Instruction{}, a.errf(ln, "unknown operator %q", opTok)
	}
	if src, _, isReg := parseReg(rest); isReg {
		if w {
			return isa.Alu32Reg(op, dst, src), nil
		}
		return isa.Alu64Reg(op, dst, src), nil
	}
	imm, ok := parseImm(rest)
	if !ok {
		return isa.Instruction{}, a.errf(ln, "bad operand %q", rest)
	}
	if w {
		return isa.Alu32Imm(op, dst, int32(imm)), nil
	}
	return isa.Alu64Imm(op, dst, int32(imm)), nil
}

// parseAssign handles every "<reg> = ..." right-hand side.
func (a *assembler) parseAssign(ln line, dst uint8, w bool, rhs string) (isa.Instruction, error) {
	switch {
	case strings.HasPrefix(rhs, "*("):
		size, signed, base, off, _, err := parseMemRef(rhs)
		if err != nil {
			return isa.Instruction{}, a.errf(ln, "%v", err)
		}
		if signed {
			return isa.LoadMemSX(size, dst, base, off), nil
		}
		return isa.LoadMem(size, dst, base, off), nil
	case strings.HasPrefix(rhs, "map_fd("):
		v, ok := parseImm(strings.TrimSuffix(rhs[7:], ")"))
		if !ok {
			return isa.Instruction{}, a.errf(ln, "bad map fd %q", rhs)
		}
		return isa.LoadMapFD(dst, int32(v)), nil
	case strings.HasPrefix(rhs, "map_value(fd="):
		body := strings.TrimSuffix(rhs[len("map_value(fd="):], ")")
		parts := strings.Split(body, " off=")
		if len(parts) != 2 {
			return isa.Instruction{}, a.errf(ln, "bad map_value %q", rhs)
		}
		fd, ok1 := parseImm(parts[0])
		off, ok2 := parseImm(parts[1])
		if !ok1 || !ok2 {
			return isa.Instruction{}, a.errf(ln, "bad map_value %q", rhs)
		}
		return isa.LoadMapValue(dst, int32(fd), uint32(off)), nil
	case strings.HasPrefix(rhs, "btf_id("):
		v, ok := parseImm(strings.TrimSuffix(rhs[7:], ")"))
		if !ok {
			return isa.Instruction{}, a.errf(ln, "bad btf id %q", rhs)
		}
		return isa.LoadBTFID(dst, int32(v)), nil
	case strings.HasSuffix(rhs, " ll"):
		v, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(rhs, " ll")), 0, 64)
		if err != nil {
			return isa.Instruction{}, a.errf(ln, "bad imm64 %q", rhs)
		}
		return isa.LoadImm64(dst, v), nil
	case strings.HasPrefix(rhs, "-") && func() bool { _, _, ok := parseReg(rhs[1:]); return ok }():
		src, _, _ := parseReg(rhs[1:])
		if src != dst {
			return isa.Instruction{}, a.errf(ln, "negation source must equal destination")
		}
		return isa.Neg64(dst), nil
	case strings.HasPrefix(rhs, "le16 "), strings.HasPrefix(rhs, "le32 "), strings.HasPrefix(rhs, "le64 "),
		strings.HasPrefix(rhs, "be16 "), strings.HasPrefix(rhs, "be32 "), strings.HasPrefix(rhs, "be64 "):
		width, _ := parseImm(rhs[2:4])
		toBE := rhs[0] == 'b'
		return isa.Endian(dst, int32(width), toBE), nil
	}
	if src, srcW, isReg := parseReg(rhs); isReg {
		if w || srcW {
			return isa.Mov32Reg(dst, src), nil
		}
		return isa.Mov64Reg(dst, src), nil
	}
	imm, ok := parseImm(rhs)
	if !ok {
		return isa.Instruction{}, a.errf(ln, "unrecognized operand %q", rhs)
	}
	if imm > 1<<31-1 || imm < -(1<<31) {
		return isa.LoadImm64(dst, uint64(imm)), nil
	}
	if w {
		return isa.Mov32Imm(dst, int32(imm)), nil
	}
	return isa.Mov64Imm(dst, int32(imm)), nil
}
