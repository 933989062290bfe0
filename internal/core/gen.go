// Package core implements BVF itself: the structured eBPF program
// generator (§4.1), validity-preserving mutation, the coverage-guided
// corpus, and the fuzzing campaign engine that drives programs through the
// verifier, the sanitizer and the runtime, detecting correctness bugs via
// the two-indicator oracle (§3).
package core

import (
	"math/rand"

	"repro/internal/btf"
	"repro/internal/isa"
	"repro/internal/maps"
	"repro/internal/trace"
)

// MapHandle is one pre-created map resource the generator can target.
type MapHandle struct {
	FD   int32
	Spec maps.Spec
}

// GenConfig parameterizes the structured generator.
type GenConfig struct {
	// Maps is the resource pool (the paper: "BVF constructs the
	// corresponding resources in the kernel before execution").
	Maps []MapHandle
	// Kfuncs permits kernel-function call frames.
	Kfuncs bool
	// Risky scales the probability of "interesting but likely rejected"
	// constructs (unchecked nullable derefs, pointer-vs-pointer
	// equality games, out-of-bounds BTF offsets) in units of 1/256.
	// These shapes are exactly the ones that trip buggy verifiers.
	Risky int
	// DisableInitHeader ablates the init header (§4.1): registers are
	// left uninitialized at entry, so frames must bootstrap their own
	// state. Used by the structure-ablation experiment.
	DisableInitHeader bool
	// DisableCallFrames ablates the call frame kind: no helper or
	// kfunc invocations are generated.
	DisableCallFrames bool
	// DisableJumpFrames ablates the jump frame kind: straight-line
	// bodies only.
	DisableJumpFrames bool
}

// regKind is the generator's lightweight abstract state for one register
// — just enough to synthesize plausible operand choices (§4.1: "recording
// the registers' states in different program points").
type regKind int

const (
	kUninit   regKind = iota
	kScalar           // unknown scalar
	kBounded          // scalar known to be in [0, bound]
	kConst            // known constant
	kPtrStack         // fp + off
	kCtx
	kMapPtr
	kMapValue       // null-checked map value pointer
	kMapValueOrNull // not yet null-checked
	kBTFObj         // trusted kernel-object pointer (see btfID)
	kPktData        // packet pointer with checked bytes
	kPktEnd
	kLoopCnt // reserved loop counter; other ops must not touch it
)

type genReg struct {
	kind  regKind
	m     *MapHandle
	bound int64      // kBounded: inclusive max; kPktData: checked range
	val   int64      // kConst value / kPtrStack offset
	btfID btf.TypeID // kBTFObj pointee
}

// maxBodyFrames bounds the framed body's top-level frame count.
const maxBodyFrames = 5

// Generator synthesizes structured programs. One Generator may produce
// many programs; it is not safe for concurrent use.
type Generator struct {
	cfg GenConfig
}

// NewGenerator returns a structured generator.
func NewGenerator(cfg GenConfig) *Generator {
	if cfg.Risky == 0 {
		cfg.Risky = 20
	}
	return &Generator{cfg: cfg}
}

// pstate is the in-flight program being synthesized.
type pstate struct {
	r    *rand.Rand
	cfg  *GenConfig
	prog *isa.Program
	regs [isa.MaxReg]genReg
	// stack marks initialized 8-byte-aligned fp offsets; slot -8*i is
	// stack[i], and freshStackSlot never hands out offsets below -248.
	stack [32]bool
	// nextStack is the next fresh stack offset to hand out.
	nextStack int16
	// pendingSize carries a mem-region size to its ArgSize argument.
	pendingSize int32
	// pendingSubprogs records bpf-to-bpf call sites whose targets are
	// appended after the end section.
	pendingSubprogs []subprogPatch
}

func (p *pstate) emit(insns ...isa.Instruction) {
	p.prog.Insns = append(p.prog.Insns, insns...)
}

func (p *pstate) chance(n int) bool { return p.r.Intn(256) < n }

// Generate synthesizes one structured program.
func (g *Generator) Generate(r *rand.Rand) *isa.Program {
	pt := isa.AllProgramTypes[r.Intn(len(isa.AllProgramTypes))]
	p := &pstate{
		r:   r,
		cfg: &g.cfg,
		// Presized so the common program builds without append growth
		// (typical generator output is well under 128 insns).
		prog: &isa.Program{
			Type: pt, GPLCompatible: true, Name: "bvf_gen",
			Insns: make([]isa.Instruction, 0, 128),
		},
		nextStack: -8,
	}
	p.regs[isa.R1] = genReg{kind: kCtx}
	p.chooseAttach()
	if !g.cfg.DisableInitHeader {
		p.genInitHeader()
	}
	nframes := 1 + r.Intn(maxBodyFrames)
	for i := 0; i < nframes; i++ {
		p.genFrame(0)
	}
	if p.chance(40) {
		p.genSubprogCall()
	}
	if p.chance(4) {
		// Occasionally emit a very large program: long fuzzing
		// campaigns produce them naturally and they exercise the
		// syscall paths that duplicate rewritten instructions
		// (the Bug #8 surface).
		p.padLarge()
	}
	p.genEndSection()
	p.emitSubprogs()
	return p.prog
}

// genSubprogCall emits a bpf-to-bpf call to a small scalar subprogram
// appended after the main body's exit — the "pseudo eBPF functions" the
// paper lists among the call frame's targets. The call's pc-relative
// delta is patched once the subprogram's position is known.
func (p *pstate) genSubprogCall() {
	// Arguments: R1-R5 get scalars.
	nargs := 1 + p.r.Intn(3)
	for a := 0; a < nargs; a++ {
		p.emit(isa.Mov64Imm(isa.R1+uint8(a), int32(p.r.Intn(1000))))
	}
	callIdx := len(p.prog.Insns)
	p.emit(isa.CallPseudo(0)) // patched below
	for r := isa.R1; r <= isa.R5; r++ {
		p.regs[r] = genReg{kind: kUninit}
	}
	p.regs[isa.R0] = genReg{kind: kScalar}

	// The body continues; the subprogram is emitted after the end
	// section, so remember the patch site.
	p.pendingSubprogs = append(p.pendingSubprogs, subprogPatch{
		callIdx: callIdx, nargs: nargs,
	})
}

type subprogPatch struct {
	callIdx int
	nargs   int
}

// emitSubprogs appends the deferred subprogram bodies and patches their
// call deltas. Called after the end section.
func (p *pstate) emitSubprogs() {
	for _, sp := range p.pendingSubprogs {
		startSlot := p.prog.Slots()
		// Body: R0 derived from the arguments with a few scalar ops.
		p.emit(isa.Mov64Reg(isa.R0, isa.R1))
		n := 1 + p.r.Intn(5)
		for i := 0; i < n; i++ {
			op := []uint8{isa.ALUAdd, isa.ALUXor, isa.ALUMul, isa.ALUAnd}[p.r.Intn(4)]
			if sp.nargs > 1 && p.chance(96) {
				p.emit(isa.Alu64Reg(op, isa.R0, isa.R1+uint8(p.r.Intn(sp.nargs))))
			} else {
				p.emit(isa.Alu64Imm(op, isa.R0, int32(p.r.Intn(512))))
			}
		}
		p.emit(isa.Exit())
		call := &p.prog.Insns[sp.callIdx]
		callSlot := p.prog.SlotOf(sp.callIdx)
		call.Imm = int32(startSlot - (callSlot + 1))
	}
	p.pendingSubprogs = nil
}

// padLarge extends the program with a long run of simple frames.
func (p *pstate) padLarge() {
	target := 520 + p.r.Intn(512)
	reg := p.scratchReg()
	p.emit(isa.Mov64Imm(reg, 1))
	p.regs[reg] = genReg{kind: kScalar}
	// Count slots once and track the padding incrementally — every padding
	// insn is single-slot, and rescanning the whole program per appended
	// insn made padding quadratic in the target size.
	for slots := p.prog.Slots(); slots < target; slots++ {
		op := aluOps[p.r.Intn(len(aluOps))]
		imm := int32(1 + p.r.Intn(127))
		if op == isa.ALULsh || op == isa.ALURsh || op == isa.ALUArsh {
			imm = int32(p.r.Intn(31))
		}
		p.emit(isa.Alu64Imm(op, reg, imm))
	}
}

// chooseAttach picks an attach target for tracing program types,
// including the hooks where the attach-restriction bugs live.
func (p *pstate) chooseAttach() {
	if p.prog.Type != isa.ProgTypeKprobe && p.prog.Type != isa.ProgTypeTracepoint {
		return
	}
	switch p.r.Intn(8) {
	case 0:
		p.prog.AttachTo = trace.ContentionBegin
	case 1:
		p.prog.AttachTo = trace.TracePrintk
	case 2:
		p.prog.AttachTo = trace.SchedSwitch
	case 3:
		p.prog.AttachTo = trace.SysEnter
	default:
		p.prog.AttachTo = trace.KprobeGeneric
	}
}

// genInitHeader initializes callee-saved registers with interesting
// values: map pointers, direct map values, kernel-variable pointers,
// random immediates and context copies (§4.1, part (1)).
func (p *pstate) genInitHeader() {
	for reg := isa.R6; reg <= isa.R9; reg++ {
		switch p.r.Intn(7) {
		case 0:
			if m := p.pickMap(0); m != nil {
				p.emit(isa.LoadMapFD(reg, m.FD))
				p.regs[reg] = genReg{kind: kMapPtr, m: m}
				continue
			}
			fallthrough
		case 1:
			if m := p.pickMap(maps.Array); m != nil {
				off := uint32(p.r.Intn(int(m.Spec.ValueSize)/2 + 1))
				p.emit(isa.LoadMapValue(reg, m.FD, off))
				p.regs[reg] = genReg{kind: kMapValue, m: m}
				continue
			}
			fallthrough
		case 2:
			ids := []btf.TypeID{btf.TaskStructID, btf.FileID, btf.SockID}
			id := ids[p.r.Intn(len(ids))]
			p.emit(isa.LoadBTFID(reg, int32(id)))
			p.regs[reg] = genReg{kind: kBTFObj, btfID: id}
		case 3:
			p.emit(isa.LoadImm64(reg, p.r.Uint64()))
			p.regs[reg] = genReg{kind: kScalar}
		case 4:
			v := int32(p.r.Intn(1024))
			p.emit(isa.Mov64Imm(reg, v))
			p.regs[reg] = genReg{kind: kConst, val: int64(v)}
		case 5:
			p.emit(isa.Mov64Reg(reg, isa.R1))
			p.regs[reg] = genReg{kind: kCtx}
		default:
			// Leave uninitialized — later frames may fill it.
		}
	}
}

// genEndSection guarantees a scalar R0 and a valid exit (§4.1, part (2)).
func (p *pstate) genEndSection() {
	if p.regs[isa.R0].kind == kUninit || !isScalarKind(p.regs[isa.R0].kind) {
		p.emit(isa.Mov64Imm(isa.R0, int32(p.r.Intn(2))))
	}
	p.emit(isa.Exit())
}

func isScalarKind(k regKind) bool {
	return k == kScalar || k == kBounded || k == kConst
}

// genFrame emits one frame, chosen uniformly among the three kinds as in
// the paper ("keeps selecting one of the frame kinds ... with equal
// probability").
func (p *pstate) genFrame(depth int) {
	switch p.r.Intn(3) {
	case 0:
		p.genBasicFrame()
	case 1:
		if depth < 2 && !p.cfg.DisableJumpFrames {
			p.genJumpFrame(depth)
		} else {
			p.genBasicFrame()
		}
	default:
		if p.cfg.DisableCallFrames {
			p.genBasicFrame()
			return
		}
		p.genCallFrame()
	}
}

// pickMap returns a random pooled map of the given type (0 = any). The
// candidate list lives in a stack buffer — map pools are small, and the
// append only spills to the heap past 32 matches.
func (p *pstate) pickMap(t maps.Type) *MapHandle {
	var buf [32]*MapHandle
	cand := buf[:0]
	for i := range p.cfg.Maps {
		m := &p.cfg.Maps[i]
		if t == 0 || m.Spec.Type == t {
			cand = append(cand, m)
		}
	}
	if len(cand) == 0 {
		return nil
	}
	return cand[p.r.Intn(len(cand))]
}

// pickReg returns a random register whose kind satisfies pred, or 0xff.
func (p *pstate) pickReg(pred func(genReg) bool) uint8 {
	var buf [isa.R10]uint8
	cand := buf[:0]
	for reg := uint8(0); reg < isa.R10; reg++ {
		if pred(p.regs[reg]) {
			cand = append(cand, reg)
		}
	}
	if len(cand) == 0 {
		return 0xff
	}
	return cand[p.r.Intn(len(cand))]
}

// scratchReg returns a callee-saved register to overwrite, preferring
// ones that hold nothing interesting and avoiding live loop counters.
func (p *pstate) scratchReg() uint8 {
	for reg := isa.R6; reg <= isa.R9; reg++ {
		if p.regs[reg].kind == kUninit || p.regs[reg].kind == kScalar {
			return reg
		}
	}
	var buf [4]uint8
	cand := buf[:0]
	for reg := isa.R6; reg <= isa.R9; reg++ {
		if p.regs[reg].kind != kLoopCnt {
			cand = append(cand, reg)
		}
	}
	if len(cand) == 0 {
		return isa.R6 + uint8(p.r.Intn(4))
	}
	return cand[p.r.Intn(len(cand))]
}

// freshStackSlot hands out an initialized 8-byte stack slot and returns
// its fp-relative offset.
func (p *pstate) freshStackSlot(init bool) int16 {
	off := p.nextStack
	if p.nextStack > -248 {
		p.nextStack -= 8
	} else {
		off = int16(-8 * (1 + p.r.Intn(31)))
	}
	if init && !p.stack[-off/8] {
		p.emit(isa.StoreImm(isa.SizeDW, isa.R10, off, int32(p.r.Intn(256))))
		p.stack[-off/8] = true
	}
	return off
}

// initStackRegion initializes size bytes on the stack and returns the
// region's base offset.
func (p *pstate) initStackRegion(size int) int16 {
	slots := (size + 7) / 8
	var base int16
	for i := 0; i < slots; i++ {
		off := p.freshStackSlot(true)
		base = off
	}
	return base
}
