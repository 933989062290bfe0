package runtime

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/btf"
	"repro/internal/faultinject"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/maps"
	"repro/internal/trace"
)

// ExtendedStack is the extra stack area above the frame pointer that
// rewrite passes (the sanitizer) may use for register backups, invisible
// to programs.
const ExtendedStack = 64

// DefaultStepLimit bounds one execution.
const DefaultStepLimit = 1 << 17

// Exec is one program execution: registers, stack frames and the machine
// it runs against.
type Exec struct {
	M    *Machine
	Prog *isa.Program

	regs   [isa.NumReg]uint64
	steps  int
	limit  int
	ctxCtx string // lockdep context name

	// watchdog is the wall-clock budget for Run (0 = unbounded); deadline
	// is materialized when Run starts. Tail-call chains inherit the
	// caller's deadline so a chain cannot multiply the budget.
	watchdog time.Duration
	deadline time.Time

	stacks []*kmem.Allocation // one per live call frame
	rets   []int              // return addresses (decoded indices)
	saved  [][5]uint64        // caller R6-R9 + R10 per frame
	// frames backs stacks until a program nests deeper than its length.
	frames [2]*kmem.Allocation

	// slots backs both slot tables; it keeps its capacity across reuse.
	slots  []int32
	slotOf []int32 // decoded index -> encoded slot
	// idxOf maps an encoded slot to its decoded index + 1; 0 marks the
	// second half of an LD_IMM64 (not a valid jump target).
	idxOf []int32

	// henv is the helpers.Env handed to helper implementations,
	// embedded so each call does not allocate a fresh one.
	henv execEnv

	// tailCalls counts chained bpf_tail_call transfers.
	tailCalls int

	// reservations tracks live ringbuf records by address.
	reservations map[uint64]*rbReservation

	ctxAlloc *kmem.Allocation
	pkt      *kmem.Allocation

	// hook, when set, is invoked before every interpreted instruction.
	hook InsnHook

	// released is set while the execution waits on its machine's free
	// list, so a second Release does not put it there twice.
	released bool
}

// InsnHook observes the interpreter immediately before each instruction
// executes: pc is the decoded instruction index and regs the live
// register file. A non-nil error aborts the execution and becomes the
// outcome's Err — the differential soundness oracle uses this to stop at
// the first abstract-state violation.
type InsnHook func(pc int, regs *[isa.NumReg]uint64) error

// SetInsnHook installs the per-instruction callback (nil disables it).
// Tail-call transfers spawn fresh executions and do not inherit the hook.
func (x *Exec) SetInsnHook(h InsnHook) { x.hook = h }

// CtxAddr returns the context buffer's base address, or 0 before the
// context is built.
func (x *Exec) CtxAddr() uint64 {
	if x.ctxAlloc == nil {
		return 0
	}
	return x.ctxAlloc.BaseAddr
}

// PacketAddr returns the packet buffer's base address, or 0 when the
// program type has no packet.
func (x *Exec) PacketAddr() uint64 {
	if x.pkt == nil {
		return 0
	}
	return x.pkt.BaseAddr
}

type rbReservation struct {
	m   *maps.Map
	rec *kmem.Allocation
}

// NewExec prepares an execution of prog on m. The context buffer and
// packet are freshly allocated so each run sees clean shadow state. It
// reuses an execution Release handed back to m, when there is one.
func NewExec(m *Machine, prog *isa.Program) *Exec {
	var x *Exec
	if n := len(m.execs); n > 0 {
		x = m.execs[n-1]
		m.execs[n-1] = nil
		m.execs = m.execs[:n-1]
		x.released = false
	} else {
		x = &Exec{}
		x.stacks = x.frames[:0]
	}
	x.M = m
	x.Prog = prog
	x.limit = DefaultStepLimit
	x.ctxCtx = "cpu0"
	// One incremental pass builds both slot tables (the old per-insn
	// SlotOf calls rescanned the program, making setup quadratic). Both
	// tables share one backing allocation: the worst case is two slots
	// per instruction, so len(prog.Insns)*3 covers slotOf plus idxOf.
	n := len(prog.Insns)
	if cap(x.slots) < n*3 {
		x.slots = make([]int32, n*3)
	}
	buf := x.slots[:n*3]
	x.slotOf = buf[:n:n]
	slot := int32(0)
	for i := range prog.Insns {
		x.slotOf[i] = slot
		slot += 1
		if prog.Insns[i].IsWide() {
			slot++
		}
	}
	x.idxOf = buf[n : n+int(slot)]
	clear(x.idxOf)
	for i := range prog.Insns {
		x.idxOf[x.slotOf[i]] = int32(i) + 1
	}
	return x
}

// Release hands a finished execution back to its machine, for the next
// NewExec on it to reuse with the capacity its tables and stacks have
// grown. It drops every pointer the execution holds into the program and
// the machine's memory; x must not be used afterwards. Releasing twice is
// a no-op. Executions nest (a tail call or a tracepoint a helper fires
// runs inside its caller) and each is released when it finishes, so the
// innermost goes back first and a running execution is never reused.
func (x *Exec) Release() {
	if x.released {
		return
	}
	m := x.M
	clear(x.stacks[:cap(x.stacks)])
	clear(x.reservations)
	*x = Exec{
		stacks:       x.stacks[:0],
		rets:         x.rets[:0],
		saved:        x.saved[:0],
		slots:        x.slots,
		reservations: x.reservations,
		henv:         x.henv,
		released:     true,
	}
	m.execs = append(m.execs, x)
}

// SetStepLimit overrides the instruction budget.
func (x *Exec) SetStepLimit(n int) { x.limit = n }

// SetWatchdog arms a wall-clock deadline for the whole execution. The
// step limit bounds work in interpreter steps; the watchdog bounds real
// time, catching stalls that burn few steps (e.g. a stuck helper). A
// timed-out run returns a *WatchdogError, which kernel.Classify treats
// as a resource limit rather than an anomaly.
func (x *Exec) SetWatchdog(d time.Duration) { x.watchdog = d }

// WatchdogError reports that an execution exceeded its wall-clock budget.
type WatchdogError struct {
	Timeout time.Duration
	Steps   int
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("runtime: watchdog: execution exceeded %v (%d steps)", e.Timeout, e.Steps)
}

// checkWatchdog visits the fault point and then the deadline, so an
// injected delay is observed by the very next check.
func (x *Exec) checkWatchdog() error {
	faultinject.Fire("runtime.exec")
	if !x.deadline.IsZero() && time.Now().After(x.deadline) {
		return &WatchdogError{Timeout: x.watchdog, Steps: x.steps}
	}
	return nil
}

// buildCtx allocates and fills the program's context per its type.
func (x *Exec) buildCtx() {
	m := x.M
	switch x.Prog.Type {
	case isa.ProgTypeSocketFilter, isa.ProgTypeSchedCLS:
		x.ctxAlloc = m.Dom.Alloc(64, "skb")
		x.pkt = m.Dom.Alloc(m.PacketLen, "packet")
		for i := range x.pkt.Data {
			x.pkt.Data[i] = byte(i)
		}
		binary.LittleEndian.PutUint32(x.ctxAlloc.Data[0:], uint32(m.PacketLen)) // len
		binary.LittleEndian.PutUint64(x.ctxAlloc.Data[24:], x.pkt.BaseAddr)     // data
		binary.LittleEndian.PutUint64(x.ctxAlloc.Data[32:], x.pkt.BaseAddr+uint64(m.PacketLen))
	case isa.ProgTypeXDP:
		x.ctxAlloc = m.Dom.Alloc(32, "xdp_md")
		x.pkt = m.Dom.Alloc(m.PacketLen, "packet")
		for i := range x.pkt.Data {
			x.pkt.Data[i] = byte(i ^ 0x5a)
		}
		binary.LittleEndian.PutUint64(x.ctxAlloc.Data[0:], x.pkt.BaseAddr)
		binary.LittleEndian.PutUint64(x.ctxAlloc.Data[8:], x.pkt.BaseAddr+uint64(m.PacketLen))
	case isa.ProgTypeKprobe, isa.ProgTypePerfEvent:
		x.ctxAlloc = m.Dom.Alloc(168, "pt_regs")
		for i := 0; i+8 <= len(x.ctxAlloc.Data); i += 8 {
			binary.LittleEndian.PutUint64(x.ctxAlloc.Data[i:], m.Random())
		}
	case isa.ProgTypeTracepoint:
		x.ctxAlloc = m.Dom.Alloc(64, "tp_ctx")
		for i := 0; i+8 <= len(x.ctxAlloc.Data); i += 8 {
			binary.LittleEndian.PutUint64(x.ctxAlloc.Data[i:], m.Random()&0xffff)
		}
	case isa.ProgTypeRawTracepoint:
		x.ctxAlloc = m.Dom.Alloc(32, "raw_tp_ctx")
		binary.LittleEndian.PutUint64(x.ctxAlloc.Data[0:], m.CurrentTaskAddr())
		// next_task is NULL at runtime despite its trusted typing.
		binary.LittleEndian.PutUint64(x.ctxAlloc.Data[8:], 0)
		binary.LittleEndian.PutUint64(x.ctxAlloc.Data[16:], m.Random()&0xff)
	default:
		x.ctxAlloc = m.Dom.Alloc(64, "ctx")
	}
}

func (x *Exec) pushFrame() {
	stack := x.M.Dom.Alloc(isa.StackSize+ExtendedStack, "bpf_stack")
	x.stacks = append(x.stacks, stack)
	x.regs[isa.R10] = stack.BaseAddr + isa.StackSize
}

func (x *Exec) popFrame() {
	x.M.Dom.Free(x.stacks[len(x.stacks)-1])
	x.stacks = x.stacks[:len(x.stacks)-1]
}

// Run executes the program from its entry point and returns the outcome.
func (x *Exec) Run() *ExecOutcome {
	if x.ctxAlloc == nil {
		x.buildCtx()
	}
	if x.watchdog > 0 && x.deadline.IsZero() {
		x.deadline = time.Now().Add(x.watchdog)
	}
	if err := x.checkWatchdog(); err != nil {
		return &ExecOutcome{Steps: x.steps, Err: err}
	}
	x.pushFrame()
	x.regs[isa.R1] = x.ctxAlloc.BaseAddr
	r0, err := x.loop(0)
	// Release remaining frames.
	for len(x.stacks) > 0 {
		x.popFrame()
	}
	return &ExecOutcome{R0: r0, Steps: x.steps, Err: err}
}

// loop interprets from decoded index pc until exit or fault.
func (x *Exec) loop(pc int) (uint64, error) {
	insns := x.Prog.Insns
	for {
		if pc < 0 || pc >= len(insns) {
			return 0, fmt.Errorf("runtime: pc %d out of range", pc)
		}
		x.steps++
		if x.steps > x.limit {
			return 0, &StepLimitError{Steps: x.steps}
		}
		if x.steps&1023 == 0 {
			if err := x.checkWatchdog(); err != nil {
				return 0, err
			}
		}
		if x.hook != nil {
			if err := x.hook(pc, &x.regs); err != nil {
				return 0, err
			}
		}
		ins := insns[pc]
		switch ins.Class() {
		case isa.ClassALU, isa.ClassALU64:
			x.execALU(ins)
			pc++
		case isa.ClassLD:
			x.regs[ins.Dst] = ins.Imm64
			pc++
		case isa.ClassLDX:
			if err := x.execLoad(pc, ins); err != nil {
				return 0, err
			}
			pc++
		case isa.ClassST, isa.ClassSTX:
			if ins.IsAtomic() {
				if err := x.execAtomic(ins); err != nil {
					return 0, err
				}
			} else if err := x.execStore(ins); err != nil {
				return 0, err
			}
			pc++
		case isa.ClassJMP, isa.ClassJMP32:
			next, done, err := x.execJmp(pc, ins)
			if err != nil {
				return 0, err
			}
			if done {
				return x.regs[isa.R0], nil
			}
			pc = next
		default:
			return 0, fmt.Errorf("runtime: bad class at pc %d", pc)
		}
	}
}

func (x *Exec) execALU(ins isa.Instruction) {
	is64 := ins.Class() == isa.ClassALU64
	op := isa.Op(ins.Opcode)
	dst := x.regs[ins.Dst]
	var src uint64
	if isa.Src(ins.Opcode) == isa.SrcX {
		src = x.regs[ins.Src]
	} else {
		src = uint64(int64(ins.Imm))
	}
	if !is64 {
		dst = uint64(uint32(dst))
		src = uint64(uint32(src))
	}
	var res uint64
	switch op {
	case isa.ALUAdd:
		res = dst + src
	case isa.ALUSub:
		res = dst - src
	case isa.ALUMul:
		res = dst * src
	case isa.ALUDiv:
		if is64 {
			if src == 0 {
				res = 0
			} else if ins.Off == 1 {
				res = uint64(int64(dst) / int64(src))
			} else {
				res = dst / src
			}
		} else {
			if uint32(src) == 0 {
				res = 0
			} else if ins.Off == 1 {
				res = uint64(uint32(int32(uint32(dst)) / int32(uint32(src))))
			} else {
				res = uint64(uint32(dst) / uint32(src))
			}
		}
	case isa.ALUMod:
		if is64 {
			if src == 0 {
				res = dst
			} else if ins.Off == 1 {
				res = uint64(int64(dst) % int64(src))
			} else {
				res = dst % src
			}
		} else {
			if uint32(src) == 0 {
				res = dst
			} else {
				res = uint64(uint32(dst) % uint32(src))
			}
		}
	case isa.ALUOr:
		res = dst | src
	case isa.ALUAnd:
		res = dst & src
	case isa.ALULsh:
		if is64 {
			res = dst << (src & 63)
		} else {
			res = uint64(uint32(dst) << (src & 31))
		}
	case isa.ALURsh:
		if is64 {
			res = dst >> (src & 63)
		} else {
			res = uint64(uint32(dst) >> (src & 31))
		}
	case isa.ALUArsh:
		if is64 {
			res = uint64(int64(dst) >> (src & 63))
		} else {
			res = uint64(uint32(int32(uint32(dst)) >> (src & 31)))
		}
	case isa.ALUNeg:
		res = -dst
	case isa.ALUXor:
		res = dst ^ src
	case isa.ALUMov:
		if is64 && ins.Off != 0 {
			// movsx
			switch ins.Off {
			case 8:
				res = uint64(int64(int8(src)))
			case 16:
				res = uint64(int64(int16(src)))
			case 32:
				res = uint64(int64(int32(src)))
			}
		} else {
			res = src
		}
	case isa.ALUEnd:
		res = byteSwap(dst, ins.Imm, isa.Src(ins.Opcode) == isa.SrcX)
	}
	if !is64 && op != isa.ALUEnd {
		res = uint64(uint32(res))
	}
	x.regs[ins.Dst] = res
}

func byteSwap(v uint64, width int32, toBE bool) uint64 {
	// The simulated machine is little-endian; to-BE means swap, to-LE is
	// a truncating no-op.
	switch width {
	case 16:
		h := uint16(v)
		if toBE {
			h = h<<8 | h>>8
		}
		return uint64(h)
	case 32:
		w := uint32(v)
		if toBE {
			b := make([]byte, 4)
			binary.LittleEndian.PutUint32(b, w)
			w = binary.BigEndian.Uint32(b)
		}
		return uint64(w)
	default:
		if toBE {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, v)
			return binary.BigEndian.Uint64(b)
		}
		return v
	}
}

func (x *Exec) execLoad(pc int, ins isa.Instruction) error {
	addr := x.regs[ins.Src] + uint64(int64(ins.Off))
	size := ins.AccessSize()
	if ins.Meta.ProbeMem {
		// Exception-handled probe read: faults yield zero, but KASAN
		// still sees accesses into mapped-but-invalid memory.
		if rep := x.M.Dom.CheckAccess(addr, size, false); rep != nil {
			switch rep.Kind {
			case kmem.ReportNull, kmem.ReportWild:
				x.regs[ins.Dst] = 0
				return nil
			default:
				return rep // OOB / UAF: kasan splat
			}
		}
		v, _ := x.M.Dom.Load(addr, size)
		x.regs[ins.Dst] = x.extend(v, ins)
		return nil
	}
	v, err := x.M.Dom.Load(addr, size)
	if err != nil {
		return err
	}
	x.regs[ins.Dst] = x.extend(v, ins)
	return nil
}

func (x *Exec) extend(v uint64, ins isa.Instruction) uint64 {
	if isa.Mode(ins.Opcode) == isa.ModeMEMSX {
		switch ins.AccessSize() {
		case 1:
			return uint64(int64(int8(v)))
		case 2:
			return uint64(int64(int16(v)))
		case 4:
			return uint64(int64(int32(v)))
		}
	}
	return v
}

func (x *Exec) execStore(ins isa.Instruction) error {
	addr := x.regs[ins.Dst] + uint64(int64(ins.Off))
	size := ins.AccessSize()
	var val uint64
	if ins.Class() == isa.ClassST {
		val = uint64(int64(ins.Imm))
	} else {
		val = x.regs[ins.Src]
	}
	return x.M.Dom.Store(addr, size, val)
}

func (x *Exec) execAtomic(ins isa.Instruction) error {
	addr := x.regs[ins.Dst] + uint64(int64(ins.Off))
	size := ins.AccessSize()
	old, err := x.M.Dom.Load(addr, size)
	if err != nil {
		return err
	}
	src := x.regs[ins.Src]
	var res uint64
	fetch := ins.Imm&isa.AtomicFetch != 0
	switch ins.Imm &^ isa.AtomicFetch {
	case isa.AtomicAdd:
		res = old + src
	case isa.AtomicOr:
		res = old | src
	case isa.AtomicAnd:
		res = old & src
	case isa.AtomicXor:
		res = old ^ src
	default:
		switch ins.Imm {
		case isa.AtomicXchg:
			res = src
			fetch = true
		case isa.AtomicCmpXchg:
			expected := x.regs[isa.R0]
			if size == 4 {
				expected = uint64(uint32(expected))
			}
			if old == expected {
				res = src
			} else {
				res = old
			}
			x.regs[isa.R0] = old
			fetch = false
		}
	}
	if size == 4 {
		res = uint64(uint32(res))
	}
	if err := x.M.Dom.Store(addr, size, res); err != nil {
		return err
	}
	if fetch {
		x.regs[ins.Src] = old
	}
	return nil
}

func (x *Exec) execJmp(pc int, ins isa.Instruction) (next int, done bool, err error) {
	op := isa.Op(ins.Opcode)
	switch op {
	case isa.EXIT:
		if len(x.rets) > 0 {
			ret := x.rets[len(x.rets)-1]
			x.rets = x.rets[:len(x.rets)-1]
			x.popFrame()
			sv := x.saved[len(x.saved)-1]
			x.saved = x.saved[:len(x.saved)-1]
			x.regs[isa.R6], x.regs[isa.R7], x.regs[isa.R8], x.regs[isa.R9] = sv[0], sv[1], sv[2], sv[3]
			x.regs[isa.R10] = sv[4]
			return ret, false, nil
		}
		return 0, true, nil
	case isa.CALL:
		return x.execCall(pc, ins)
	case isa.JA:
		return x.target(pc, int32(ins.Off))
	}

	dst := x.regs[ins.Dst]
	var src uint64
	if isa.Src(ins.Opcode) == isa.SrcX {
		src = x.regs[ins.Src]
	} else {
		src = uint64(int64(ins.Imm))
	}
	if ins.Class() == isa.ClassJMP32 {
		dst = uint64(uint32(dst))
		src = uint64(uint32(src))
		if isa.Src(ins.Opcode) == isa.SrcK {
			src = uint64(uint32(ins.Imm))
		}
	}
	var take bool
	switch op {
	case isa.JEQ:
		take = dst == src
	case isa.JNE:
		take = dst != src
	case isa.JGT:
		take = dst > src
	case isa.JGE:
		take = dst >= src
	case isa.JLT:
		take = dst < src
	case isa.JLE:
		take = dst <= src
	case isa.JSET:
		take = dst&src != 0
	case isa.JSGT, isa.JSGE, isa.JSLT, isa.JSLE:
		var d, s int64
		if ins.Class() == isa.ClassJMP32 {
			d, s = int64(int32(uint32(dst))), int64(int32(uint32(src)))
		} else {
			d, s = int64(dst), int64(src)
		}
		switch op {
		case isa.JSGT:
			take = d > s
		case isa.JSGE:
			take = d >= s
		case isa.JSLT:
			take = d < s
		case isa.JSLE:
			take = d <= s
		}
	}
	if take {
		return x.target(pc, int32(ins.Off))
	}
	return pc + 1, false, nil
}

func (x *Exec) target(pc int, off int32) (int, bool, error) {
	slot := int(x.slotOf[pc]) + 1 + int(off)
	if x.Prog.Insns[pc].IsWide() {
		slot++
	}
	if slot < 0 || slot >= len(x.idxOf) || x.idxOf[slot] == 0 {
		return 0, false, fmt.Errorf("runtime: jump to invalid slot %d", slot)
	}
	return int(x.idxOf[slot]) - 1, false, nil
}

func (x *Exec) execCall(pc int, ins isa.Instruction) (int, bool, error) {
	switch {
	case ins.IsPseudoCall():
		tgt, _, err := x.target(pc, ins.Imm)
		if err != nil {
			return 0, false, err
		}
		x.rets = append(x.rets, pc+1)
		x.saved = append(x.saved, [5]uint64{
			x.regs[isa.R6], x.regs[isa.R7], x.regs[isa.R8], x.regs[isa.R9], x.regs[isa.R10],
		})
		x.pushFrame()
		return tgt, false, nil
	case ins.IsKfuncCall():
		if err := x.execKfunc(ins); err != nil {
			return 0, false, err
		}
		return pc + 1, false, nil
	}

	// Tail calls are intercepted: on success, control transfers to the
	// target program and never returns (the kernel's MAX_TAIL_CALL_CNT
	// bounds the chain).
	if ins.Imm == helpers.TailCall {
		return x.execTailCall(pc, ins)
	}

	// Sanitizer dispatch functions come first; they are not helpers.
	if kind, size, ok := helpers.IsAsanID(ins.Imm); ok {
		switch kind {
		case 'l':
			if rep := x.M.Dom.CheckAccess(x.regs[isa.R1], size, false); rep != nil {
				return 0, false, rep
			}
		case 's':
			if rep := x.M.Dom.CheckAccess(x.regs[isa.R1], size, true); rep != nil {
				return 0, false, rep
			}
		case 'r':
			return 0, false, &RangeViolationError{PC: pc, Value: x.regs[isa.R1]}
		}
		return pc + 1, false, nil
	}

	h := x.M.Helpers.ByID(ins.Imm)
	if h == nil {
		return 0, false, fmt.Errorf("runtime: unknown helper %d", ins.Imm)
	}
	args := [5]uint64{x.regs[isa.R1], x.regs[isa.R2], x.regs[isa.R3], x.regs[isa.R4], x.regs[isa.R5]}
	if x.henv.x == nil {
		x.henv.x = x
	}
	ret, err := h.Impl(&x.henv, args)
	if err != nil {
		return 0, false, err
	}
	x.regs[isa.R0] = ret
	// Caller-saved registers are clobbered.
	x.regs[isa.R1] = 0xdead000000000001
	x.regs[isa.R2] = 0xdead000000000002
	x.regs[isa.R3] = 0xdead000000000003
	x.regs[isa.R4] = 0xdead000000000004
	x.regs[isa.R5] = 0xdead000000000005
	return pc + 1, false, nil
}

// MaxTailCalls mirrors the kernel's MAX_TAIL_CALL_CNT.
const MaxTailCalls = 33

// execTailCall implements bpf_tail_call: on success the target program
// replaces the current one (same context, fresh stack); on failure the
// caller continues with an error in R0.
func (x *Exec) execTailCall(pc int, ins isa.Instruction) (int, bool, error) {
	fail := func() (int, bool, error) {
		x.regs[isa.R0] = helpers.Errno(helpers.ENOENT)
		return pc + 1, false, nil
	}
	m := x.M.MapByAddr(x.regs[isa.R2])
	if m == nil || x.M.ResolveProg == nil || x.tailCalls >= MaxTailCalls {
		return fail()
	}
	fd := m.ProgAt(uint32(x.regs[isa.R3]))
	if fd == 0 {
		return fail()
	}
	target := x.M.ResolveProg(fd)
	if target == nil {
		return fail()
	}
	sub := NewExec(x.M, target)
	sub.tailCalls = x.tailCalls + 1
	sub.ctxAlloc = x.ctxAlloc
	sub.pkt = x.pkt
	sub.limit = x.limit - x.steps
	sub.watchdog = x.watchdog
	sub.deadline = x.deadline
	out := sub.Run()
	sub.Release()
	x.steps += out.Steps
	if out.Err != nil {
		return 0, false, out.Err
	}
	// The tail-called program's R0 is the final result.
	x.regs[isa.R0] = out.R0
	return 0, true, nil
}

// execKfunc interprets the kernel functions registered in the BTF
// registry. Their bodies are small and explicit.
func (x *Exec) execKfunc(ins isa.Instruction) error {
	k := x.M.BTF.Kfunc(btf.TypeID(ins.Imm))
	if k == nil {
		return fmt.Errorf("runtime: unknown kfunc %d", ins.Imm)
	}
	switch k.Name {
	case "bpf_task_acquire":
		x.regs[isa.R0] = x.regs[isa.R1]
	case "bpf_task_release", "bpf_obj_drop_impl":
		// Reference dropped; nothing observable in this simulator.
		x.regs[isa.R0] = 0
	case "bpf_task_from_pid":
		if uint32(x.regs[isa.R1]) == 1000 {
			x.regs[isa.R0] = x.M.CurrentTaskAddr()
		} else {
			x.regs[isa.R0] = 0
		}
	case "bpf_rcu_read_lock", "bpf_rcu_read_unlock":
		x.regs[isa.R0] = 0
	case "bpf_obj_new_impl":
		a := x.M.Dom.Alloc(int(uint32(x.regs[isa.R1]))%256+16, "bpf_obj")
		x.regs[isa.R0] = a.BaseAddr
	default:
		x.regs[isa.R0] = 0
	}
	x.regs[isa.R1] = 0xdead000000000001
	x.regs[isa.R2] = 0xdead000000000002
	x.regs[isa.R3] = 0xdead000000000003
	x.regs[isa.R4] = 0xdead000000000004
	x.regs[isa.R5] = 0xdead000000000005
	return nil
}

// execEnv adapts an Exec to the helpers.Env interface; helper bodies are
// instrumented kernel code, so their accesses are checked.
type execEnv struct{ x *Exec }

var _ helpers.Env = (*execEnv)(nil)

func (e *execEnv) MapByAddr(addr uint64) *maps.Map { return e.x.M.MapByAddr(addr) }

// ReadMem reads size bytes in 8-byte checked loads. The size comes from
// a program register, which a wrongly accepted program may hold at up to
// 2^31-1, so the result grows only as its loads succeed: the first one
// that fails ends the read before the buffer outgrows what was read. The
// first buffer is one BPF stack's size, so a read from the stack never
// grows it.
func (e *execEnv) ReadMem(addr uint64, size int) ([]byte, error) {
	if size < 0 {
		return nil, &kmem.Report{Kind: kmem.ReportWild, Addr: addr, Size: size}
	}
	out := make([]byte, 0, min(size, isa.StackSize))
	for i := 0; i < size; i += 8 {
		n := min(size-i, 8)
		v, rep := e.x.M.Dom.LoadChecked(addr+uint64(i), n)
		if rep != nil {
			return nil, rep
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		out = append(out, b[:n]...)
	}
	return out, nil
}

func (e *execEnv) WriteMem(addr uint64, data []byte) error {
	for i := 0; i < len(data); i += 8 {
		n := len(data) - i
		if n > 8 {
			n = 8
		}
		var b [8]byte
		copy(b[:n], data[i:i+n])
		if rep := e.x.M.Dom.StoreChecked(addr+uint64(i), n, binary.LittleEndian.Uint64(b[:])); rep != nil {
			return rep
		}
	}
	return nil
}

func (e *execEnv) AcquireLock(class string, contended bool) error {
	m := e.x.M
	if contended {
		// Contended acquisition fires the contention_begin tracepoint
		// before the lock is taken — the Figure 2 mechanism.
		if err := m.Trace.Fire(trace.ContentionBegin); err != nil {
			return err
		}
	}
	if viol := m.Lockdep.Acquire(e.x.ctxCtx, m.lockClass(class)); viol != nil {
		return viol
	}
	return nil
}

func (e *execEnv) ReleaseLock(class string) {
	e.x.M.Lockdep.Release(e.x.ctxCtx, e.x.M.lockClass(class))
}

func (e *execEnv) FireTracepoint(name string) error {
	return e.x.M.Trace.Fire(name)
}

func (e *execEnv) CurrentTaskAddr() uint64 { return e.x.M.CurrentTaskAddr() }

func (e *execEnv) SendSignal(sig uint64) error {
	// perf_event programs run in NMI context, where signal delivery
	// panics the kernel (the Bug #6 consequence). The knob only weakens
	// the verifier; the kernel behaviour is unconditional.
	if e.x.Prog.Type == isa.ProgTypePerfEvent {
		return &helpers.PanicError{Reason: fmt.Sprintf("bpf_send_signal(%d) from NMI context", sig)}
	}
	return nil
}

func (e *execEnv) Random() uint64 { return e.x.M.Random() }
func (e *execEnv) Time() uint64   { return e.x.M.Time() }
func (e *execEnv) CPU() int       { return 0 }

func (e *execEnv) RingbufReserve(m *maps.Map, size int) uint64 {
	rec := m.RingbufReserve(size)
	if rec == nil {
		return 0
	}
	if e.x.reservations == nil {
		e.x.reservations = make(map[uint64]*rbReservation)
	}
	e.x.reservations[rec.BaseAddr] = &rbReservation{m: m, rec: rec}
	return rec.BaseAddr
}

func (e *execEnv) RingbufCommit(addr uint64, discard bool) {
	res, ok := e.x.reservations[addr]
	if !ok {
		return
	}
	delete(e.x.reservations, addr)
	if discard {
		res.m.RingbufDiscard(res.rec)
		return
	}
	_ = res.m.RingbufSubmit(res.rec)
}

func (e *execEnv) ReadPacket(off, size int) ([]byte, bool) {
	pkt := e.x.pkt
	if pkt == nil || off < 0 || size < 0 || off+size > pkt.Size {
		return nil, false
	}
	out := make([]byte, size)
	copy(out, pkt.Data[off:off+size])
	return out, true
}
