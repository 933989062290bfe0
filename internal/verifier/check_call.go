package verifier

import (
	"fmt"

	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/maps"
	"repro/internal/trace"
)

// maxCallFrames mirrors the kernel's MAX_CALL_FRAMES.
const maxCallFrames = 8

// checkCall dispatches the three call forms.
func (e *env) checkCall(st *State, i int, ins isa.Instruction) error {
	switch {
	case ins.IsHelperCall():
		return e.checkHelperCall(st, i, ins)
	case ins.IsKfuncCall():
		return e.checkKfuncCall(st, i, ins)
	case ins.IsPseudoCall():
		return e.checkPseudoCall(st, i, ins)
	}
	return e.reject(i, EINVAL, "invalid call insn")
}

// checkHelperCall validates a helper invocation against its prototype,
// following check_helper_call.
func (e *env) checkHelperCall(st *State, i int, ins isa.Instruction) error {
	if e.cfg.Helpers == nil {
		return e.reject(i, EINVAL, "no helpers available")
	}
	h := e.cfg.Helpers.ByID(ins.Imm)
	if h == nil {
		e.cov("call:unknown")
		return e.reject(i, EINVAL, "invalid func unknown#%d", ins.Imm)
	}
	e.cov("call:", h.Name)
	if err := h.AllowedFor(e.prog.Type, e.prog.GPLCompatible); err != nil {
		e.cov("call:gated")
		return e.reject(i, EACCES, "%v", err)
	}
	if err := e.checkAttachRestrictions(i, h); err != nil {
		return err
	}
	if h.ID == helpers.TailCall {
		// A successful tail call never returns here: the program exits
		// with the *target* program's return value, which this
		// verification cannot bound.
		u := unknownScalar()
		e.r0Bounds.widen(&u)
	}

	// Argument checking.
	var meta struct {
		m   *maps.Map // map from the ArgConstMapPtr position
		idx uint32    // its RegState.MapIdx
	}
	for ai, at := range h.Args {
		if at == ArgNoneSentinel {
			break
		}
		reg := st.Reg(isa.R1 + uint8(ai))
		argErr := func(format string, args ...interface{}) error {
			e.cov("call:badarg:", h.Name)
			return e.reject(i, EACCES, "R%d %s", int(isa.R1)+ai, sprintf(format, args...))
		}
		switch at {
		case helpers.ArgAnything:
			if reg.Type == NotInit {
				return argErr("!read_ok")
			}
		case helpers.ArgScalar:
			if reg.Type != Scalar {
				return argErr("type=%s expected=scalar", reg.Type)
			}
		case helpers.ArgConstMapPtr:
			if reg.Type != ConstPtrToMap {
				return argErr("type=%s expected=map_ptr", reg.Type)
			}
			meta.m, meta.idx = e.mapOf(reg), reg.MapIdx
			e.cov("call:map_arg:", meta.m.Type.String())
			// Map/helper compatibility, as in check_map_func_compatibility:
			// prog arrays are only usable by bpf_tail_call and vice versa.
			if (meta.m.Type == maps.ProgArray) != (h.ID == helpers.TailCall) {
				e.cov("call:map_func_incompat")
				return e.reject(i, EINVAL, "cannot pass map_type %d into func %s", meta.m.Type, h.Name)
			}
		case helpers.ArgMapKey:
			if meta.m == nil {
				return argErr("map_key arg without map_ptr")
			}
			if err := e.checkHelperMemArg(st, i, reg, int(meta.m.KeySize), false); err != nil {
				return err
			}
		case helpers.ArgMapValue:
			if meta.m == nil {
				return argErr("map_value arg without map_ptr")
			}
			if err := e.checkHelperMemArg(st, i, reg, int(meta.m.ValueSize), false); err != nil {
				return err
			}
		case helpers.ArgPtrToMem, helpers.ArgPtrToUninitMem:
			// Size comes from the following ArgSize register.
			if ai+1 >= len(h.Args) || h.Args[ai+1] != helpers.ArgSize {
				return argErr("mem arg without size arg")
			}
			sizeReg := st.Reg(isa.R1 + uint8(ai) + 1)
			if sizeReg.Type != Scalar {
				return e.reject(i, EACCES, "R%d type=%s expected=scalar", int(isa.R2)+ai, sizeReg.Type)
			}
			if sizeReg.UMax > isa.StackSize && sizeReg.UMax > 4096 {
				e.cov("call:unbounded_size")
				return e.reject(i, EACCES, "R%d unbounded memory access", int(isa.R2)+ai)
			}
			writable := at == helpers.ArgPtrToUninitMem
			if err := e.checkHelperMemArg(st, i, reg, int(sizeReg.UMax), writable); err != nil {
				return err
			}
		case helpers.ArgSize:
			if reg.Type != Scalar {
				return argErr("type=%s expected=scalar", reg.Type)
			}
		case helpers.ArgBTFTask:
			if reg.Type != PtrToBTFID || reg.MaybeNull {
				return argErr("type=%s expected=trusted ptr_ to task_struct", reg.Type)
			}
		case helpers.ArgPtrToCtx:
			if reg.Type != PtrToCtx || reg.Off != 0 {
				return argErr("type=%s expected=ctx", reg.Type)
			}
		}
	}

	sizeConst := *st.Reg(isa.R2)

	// Release-semantics helpers consume the reference carried by their
	// first argument (ringbuf submit/discard).
	if h.ReleasesRef {
		r1 := st.Reg(isa.R1)
		if r1.Type != PtrToMem || r1.MaybeNull || r1.RefObj == 0 {
			e.cov("call:release_unowned")
			return e.reject(i, EACCES, "helper %s expects a null-checked ringbuf record", h.Name)
		}
		ref := r1.RefObj
		if !e.releaseRef(st, ref) {
			return e.reject(i, EACCES, "release of unacquired reference id=%d", ref)
		}
		for r := 0; r < isa.NumReg; r++ {
			if st.Cur().Regs[r].RefObj == ref {
				st.Cur().Regs[r].markNotInit()
			}
		}
	}

	// Helper calls clobber R1-R5 and set R0 per the prototype.
	f := st.Cur()
	for r := isa.R1; r <= isa.R5; r++ {
		f.Regs[r].markNotInit()
	}
	r0 := st.Reg(isa.R0)
	switch h.Ret {
	case helpers.RetInteger:
		e.cov("call:ret_int")
		*r0 = unknownScalar()
	case helpers.RetVoid:
		r0.markNotInit()
	case helpers.RetMapValueOrNull:
		e.cov("call:ret_map_value_or_null")
		if meta.m == nil {
			return e.reject(i, EINVAL, "helper %s returns map value without map arg", h.Name)
		}
		*r0 = RegState{Type: PtrToMapValue, MapIdx: meta.idx, MaybeNull: true, ID: e.newID()}
		r0.zeroVar()
	case helpers.RetBTFTask:
		e.cov("call:ret_btf_task")
		*r0 = RegState{Type: PtrToBTFID, BTF: btf.TaskStructID, ID: e.newID()}
		r0.zeroVar()
	case helpers.RetMemOrNull:
		e.cov("call:ret_mem_or_null")
		// The region's size is the helper's second argument, which must
		// be a known constant (bpf_ringbuf_reserve's verifier rule).
		if !sizeConst.IsConst() || sizeConst.ConstVal() == 0 || sizeConst.ConstVal() > 1<<20 {
			return e.reject(i, EINVAL, "helper %s requires a constant, positive size", h.Name)
		}
		*r0 = RegState{
			Type: PtrToMem, MaybeNull: true, ID: e.newID(),
			MemSize: int32(sizeConst.ConstVal()),
		}
		r0.zeroVar()
		if h.AcquiresRef {
			e.refCounter++
			r0.RefObj = e.refCounter
			st.Refs = append(st.Refs, e.refCounter)
			e.cov("call:helper_acquire")
		}
	}
	st.Insn = i + 1
	return nil
}

// ArgNoneSentinel terminates shorter-than-5 argument lists.
const ArgNoneSentinel = helpers.ArgNone

func sprintf(format string, args ...interface{}) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}

// checkAttachRestrictions enforces the attach-context checks whose absence
// constitutes bugs #4, #5 and #6.
func (e *env) checkAttachRestrictions(i int, h *helpers.Helper) error {
	// Bug #4: a program attached to the trace_printk tracepoint must
	// not itself call bpf_trace_printk (recursion through the printk
	// path).
	if h.ID == helpers.TracePrintk && e.prog.AttachTo == trace.TracePrintk {
		if !e.cfg.Bugs.Has(bugs.Bug4TracePrintk) {
			e.cov("attach:printk_rejected")
			return e.reject(i, EACCES, "bpf_trace_printk not allowed in programs attached to trace_printk")
		}
		e.cov("attach:printk_allowed_bug4")
	}
	// Bug #5: programs attached to contention_begin must not call
	// lock-taking helpers (re-entrant contention).
	if h.ContendedLock != "" && e.prog.AttachTo == trace.ContentionBegin {
		if !e.cfg.Bugs.Has(bugs.Bug5Contention) {
			e.cov("attach:contention_rejected")
			return e.reject(i, EACCES, "helper %s acquires locks and cannot attach to contention_begin", h.Name)
		}
		e.cov("attach:contention_allowed_bug5")
	}
	// Bug #6: bpf_send_signal requires a non-NMI context; perf_event
	// programs run in NMI context.
	if h.ID == helpers.SendSignal && e.prog.Type == isa.ProgTypePerfEvent {
		if !e.cfg.Bugs.Has(bugs.Bug6SendSignal) {
			e.cov("attach:signal_rejected")
			return e.reject(i, EACCES, "bpf_send_signal not allowed in NMI context programs")
		}
		e.cov("attach:signal_allowed_bug6")
	}
	return nil
}

// checkHelperMemArg validates that reg points to memory readable (or
// writable) for size bytes, following check_helper_mem_access.
func (e *env) checkHelperMemArg(st *State, i int, reg *RegState, size int, writable bool) error {
	if size < 0 {
		return e.reject(i, EACCES, "invalid negative size %d", size)
	}
	if size == 0 {
		return nil
	}
	if reg.MaybeNull {
		e.cov("call:mem_or_null")
		return e.reject(i, EACCES, "R? invalid mem access '%s_or_null'", reg.Type)
	}
	switch reg.Type {
	case PtrToStack:
		off := int64(reg.Off)
		if off >= 0 || off < -isa.StackSize || off+int64(size) > 0 {
			e.cov("call:stack_oob")
			return e.reject(i, EACCES, "invalid indirect access to stack off=%d size=%d", off, size)
		}
		f := st.Cur()
		start := isa.StackSize + off
		slotLo := int(start) / 8
		slotHi := int(start+int64(size)-1) / 8
		if writable {
			f.allocStack(slotLo)
		}
		for s := slotLo; s <= slotHi; s++ {
			if f.slotAt(s).Kind == SlotInvalid {
				if writable {
					// The helper fully initializes the region.
					f.Stack[s] = StackSlot{Kind: SlotMisc}
					continue
				}
				e.cov("call:stack_uninit")
				return e.reject(i, EACCES, "invalid indirect read from stack off %d", off)
			}
			if writable {
				f.Stack[s] = StackSlot{Kind: SlotMisc}
			}
		}
		return nil
	case PtrToMapValue:
		lo := int64(reg.Off) + reg.SMin
		hi := int64(reg.Off) + reg.SMax
		if vs := e.mapOf(reg).ValueSize; lo < 0 || hi+int64(size) > int64(vs) {
			e.cov("call:map_value_oob")
			return e.reject(i, EACCES, "invalid access to map value, value_size=%d off=%d size=%d",
				vs, reg.Off, size)
		}
		return nil
	case PtrToPacket:
		if int64(reg.Off)+int64(size) > int64(reg.Range) {
			return e.reject(i, EACCES, "invalid access to packet, off=%d size=%d range=%d", reg.Off, size, reg.Range)
		}
		return nil
	case PtrToMem:
		if int64(reg.Off)+int64(size) > int64(reg.MemSize) {
			return e.reject(i, EACCES, "invalid access to memory, mem_size=%d", reg.MemSize)
		}
		return nil
	}
	e.cov("call:bad_mem_arg")
	return e.reject(i, EACCES, "R? type=%s expected=pointer to mem", reg.Type)
}

// checkKfuncCall validates kernel-function calls by BTF id, following
// check_kfunc_call, including reference acquire/release accounting. The
// Bug #3 knob corrupts scalar precision afterwards, modeling the broken
// backtracking the paper describes.
func (e *env) checkKfuncCall(st *State, i int, ins isa.Instruction) error {
	if e.cfg.BTF == nil || e.cfg.DisableKfuncs {
		return e.reject(i, EINVAL, "calling kernel functions is not supported")
	}
	k := e.cfg.BTF.Kfunc(btf.TypeID(ins.Imm))
	if k == nil {
		e.cov("kfunc:unknown")
		return e.reject(i, EINVAL, "kernel function #%d is not allowed", ins.Imm)
	}
	e.cov("kfunc:", k.Name)
	var releasedRef uint32
	for ai, p := range k.Params {
		reg := st.Reg(isa.R1 + uint8(ai))
		if p.BTF == 0 {
			if reg.Type != Scalar {
				e.cov("kfunc:badarg")
				return e.reject(i, EACCES, "R%d type=%s expected=scalar", int(isa.R1)+ai, reg.Type)
			}
			continue
		}
		if reg.Type != PtrToBTFID || reg.BTF != p.BTF {
			e.cov("kfunc:badarg")
			return e.reject(i, EACCES, "R%d type=%s expected=ptr_ to %d", int(isa.R1)+ai, reg.Type, p.BTF)
		}
		if reg.MaybeNull && !p.Nullable {
			e.cov("kfunc:null_arg")
			return e.reject(i, EACCES, "R%d is ptr_or_null, null check required", int(isa.R1)+ai)
		}
		if k.Release {
			if reg.RefObj == 0 {
				e.cov("kfunc:release_unowned")
				return e.reject(i, EACCES, "release kernel function %s expects refcounted arg", k.Name)
			}
			releasedRef = reg.RefObj
		}
	}
	if k.Release {
		if !e.releaseRef(st, releasedRef) {
			return e.reject(i, EACCES, "release of unacquired reference id=%d", releasedRef)
		}
	}

	f := st.Cur()
	// Invalidate every copy of a released pointer.
	if k.Release && releasedRef != 0 {
		for r := 0; r < isa.NumReg; r++ {
			if f.Regs[r].RefObj == releasedRef {
				f.Regs[r].markNotInit()
			}
		}
	}
	for r := isa.R1; r <= isa.R5; r++ {
		f.Regs[r].markNotInit()
	}
	r0 := st.Reg(isa.R0)
	if k.RetBTF != 0 {
		*r0 = RegState{Type: PtrToBTFID, BTF: k.RetBTF, MaybeNull: k.RetNullable, ID: e.newID()}
		r0.zeroVar()
		if k.Acquire {
			e.refCounter++
			r0.RefObj = e.refCounter
			st.Refs = append(st.Refs, e.refCounter)
			e.cov("kfunc:acquire")
		}
	} else {
		*r0 = unknownScalar()
	}

	// Bug #3: the backtracking pass run for kfunc calls wrongly marks
	// callee-saved scalars precise at a stale constant — their range
	// collapses to the minimum, so later bounds reasoning is wrong.
	if e.cfg.Bugs.Has(bugs.Bug3KfuncBacktrack) {
		for r := isa.R6; r <= isa.R9; r++ {
			reg := &f.Regs[r]
			if reg.Type == Scalar && !reg.IsConst() && reg.SMin >= 0 && reg.UMax < 1<<16 {
				e.cov("kfunc:bug3_collapse")
				*reg = constScalar(uint64(reg.SMin))
				reg.Precise = true
			}
		}
	}

	st.Insn = i + 1
	return nil
}

func (e *env) releaseRef(st *State, id uint32) bool {
	for idx, ref := range st.Refs {
		if ref == id {
			st.Refs = append(st.Refs[:idx], st.Refs[idx+1:]...)
			return true
		}
	}
	return false
}

// checkPseudoCall handles bpf-to-bpf calls: a new frame is pushed and
// verification continues inside the callee, as in the kernel.
func (e *env) checkPseudoCall(st *State, i int, ins isa.Instruction) error {
	e.cov("call:pseudo")
	if len(st.Frames) >= maxCallFrames {
		return e.reject(i, EINVAL, "the call stack of %d frames is too deep", len(st.Frames)+1)
	}
	tgt := e.jumpTarget(i, ins.Imm)
	if tgt < 0 {
		return e.reject(i, EINVAL, "call to invalid destination")
	}
	caller := st.Cur()
	callee := e.newFrame()
	// The frame may come from the pool with stale contents; init
	// empties its registers and stack.
	callee.init(caller.FrameNo+1, i)
	for r := isa.R1; r <= isa.R5; r++ {
		callee.Regs[r] = caller.Regs[r]
	}
	callee.Regs[isa.R10] = RegState{Type: PtrToStack}
	callee.Regs[isa.R10].zeroVar()
	st.Frames = append(st.Frames, callee)
	st.Insn = tgt
	return nil
}
