package verifier

import (
	"strconv"

	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/isa"
	"repro/internal/tnum"
)

// checkMemAccess validates one LDX/ST/STX instruction (including atomics)
// and updates the abstract state, mirroring check_mem_access.
func (e *env) checkMemAccess(st *State, i int, ins isa.Instruction, isStore bool) error {
	if ins.IsAtomic() {
		return e.checkAtomic(st, i, ins)
	}

	size := ins.AccessSize()
	var base uint8
	if isStore {
		base = ins.Dst
	} else {
		base = ins.Src
	}
	if err := e.checkRegRead(st, i, base); err != nil {
		return err
	}
	if isStore && ins.Class() == isa.ClassSTX {
		if err := e.checkRegRead(st, i, ins.Src); err != nil {
			return err
		}
	}
	if !isStore {
		if err := e.checkRegWrite(st, i, ins.Dst); err != nil {
			return err
		}
	}

	reg := *st.Reg(base)
	if reg.Type == Scalar {
		e.cov("mem:scalar_base")
		return e.reject(i, EACCES, "R%d invalid mem access 'scalar'", base)
	}
	if reg.MaybeNull {
		e.cov("mem:maybe_null")
		return e.reject(i, EACCES, "R%d invalid mem access '%s_or_null'", base, reg.Type)
	}
	if err := e.recordInsnType(i, reg.Type); err != nil {
		return err
	}

	off := int64(reg.Off) + int64(ins.Off)
	switch reg.Type {
	case PtrToStack:
		return e.checkStackAccess(st, i, ins, off, size, isStore)
	case PtrToCtx:
		return e.checkCtxAccess(st, i, ins, off, size, isStore)
	case PtrToMapValue:
		return e.checkMapValueAccess(st, i, ins, &reg, off, size, isStore)
	case PtrToPacket:
		return e.checkPacketAccess(st, i, ins, &reg, off, size, isStore)
	case PtrToBTFID:
		return e.checkBTFAccess(st, i, ins, &reg, off, size, isStore)
	case PtrToMem:
		return e.checkMemRegionAccess(st, i, ins, &reg, off, size, isStore)
	case ConstPtrToMap, PtrToPacketEnd:
		e.cov("mem:bad_base:", reg.Type.String())
		return e.reject(i, EACCES, "R%d invalid mem access '%s'", base, reg.Type)
	}
	return e.reject(i, EACCES, "R%d invalid mem access", base)
}

// checkStackAccess handles fp-relative loads and stores, tracking slot
// contents (spill/misc/zero) like check_stack_read/write.
func (e *env) checkStackAccess(st *State, i int, ins isa.Instruction, off int64, size int, isStore bool) error {
	e.covStackAccess(size, isStore)
	if off >= 0 || off < -isa.StackSize || off+int64(size) > 0 {
		e.cov("mem:stack_oob")
		return e.reject(i, EACCES, "invalid stack off=%d size=%d", off, size)
	}
	f := st.Cur()
	start := isa.StackSize + off // byte index 0..511 from stack base
	slotLo := int(start) / 8
	slotHi := int(start+int64(size)-1) / 8

	if isStore {
		// A full-width register store spills the register.
		if size == 8 && int(start)%8 == 0 && ins.Class() == isa.ClassSTX {
			e.cov("mem:stack_spill")
			f.allocStack(slotLo)
			f.Stack[slotLo] = StackSlot{Kind: SlotSpill, Spill: *st.Reg(ins.Src)}
			return nil
		}
		// Partial or immediate stores initialize bytes; for simplicity
		// whole touched slots become misc (zero for constant-zero
		// stores covering a full slot).
		kind := SlotMisc
		if ins.Class() == isa.ClassST && ins.Imm == 0 && size == 8 && int(start)%8 == 0 {
			kind = SlotZero
		}
		f.allocStack(slotLo)
		for s := slotLo; s <= slotHi; s++ {
			e.cov("mem:stack_store")
			f.Stack[s] = StackSlot{Kind: kind}
		}
		return nil
	}

	// Load: a full-slot read of a spill restores the spilled register.
	if size == 8 && int(start)%8 == 0 && f.slotAt(slotLo).Kind == SlotSpill {
		e.cov("mem:stack_fill")
		*st.Reg(ins.Dst) = f.Stack[slotLo].Spill
		return nil
	}
	for s := slotLo; s <= slotHi; s++ {
		switch f.slotAt(s).Kind {
		case SlotInvalid:
			e.cov("mem:stack_uninit")
			return e.reject(i, EACCES, "invalid read from stack off %d: uninitialized", off)
		case SlotSpill:
			// Partial read of a spilled register: contents become
			// unknown bytes (allowed for privileged).
			e.cov("mem:stack_partial_spill")
		}
	}
	dst := st.Reg(ins.Dst)
	if allZero(f, slotLo, slotHi) {
		*dst = constScalar(0)
	} else {
		*dst = unknownScalar()
		if size < 8 {
			boundBySize(dst, size, isa.Mode(ins.Opcode) == isa.ModeMEMSX)
		}
	}
	return nil
}

func allZero(f *FuncState, lo, hi int) bool {
	for s := lo; s <= hi; s++ {
		if f.slotAt(s).Kind != SlotZero {
			return false
		}
	}
	return true
}

// boundBySize narrows a freshly loaded scalar to its width.
func boundBySize(r *RegState, size int, signed bool) {
	if signed {
		// Sign-extended loads stay unbounded in unsigned terms.
		r.SMin = -(1 << (uint(size)*8 - 1))
		r.SMax = 1<<(uint(size)*8-1) - 1
		return
	}
	r.UMin = 0
	r.UMax = 1<<(uint(size)*8) - 1
	r.SMin = 0
	r.SMax = int64(r.UMax)
	r.VarOff = tnum.Range(0, r.UMax)
	r.updateBounds()
}

// checkCtxAccess validates context loads/stores against the program
// type's layout, yielding pointer registers for pointer fields.
func (e *env) checkCtxAccess(st *State, i int, ins isa.Instruction, off int64, size int, isStore bool) error {
	e.covs(siteMemCtx)
	layout := LayoutFor(e.prog.Type)
	if layout == nil {
		return e.reject(i, EACCES, "program type %s has no ctx", e.prog.Type)
	}
	if off < 0 || off+int64(size) > int64(layout.Size) {
		e.cov("mem:ctx_oob")
		return e.reject(i, EACCES, "invalid bpf_context access off=%d size=%d", off, size)
	}
	field := layout.FieldAt(int32(off), int32(size))
	if field == nil {
		e.cov("mem:ctx_badfield")
		return e.reject(i, EACCES, "invalid bpf_context access off=%d size=%d", off, size)
	}
	e.cov("mem:ctx_field:", e.prog.Type.String(), ":", field.Name)
	if isStore {
		if !field.Writable || field.Kind != CtxScalar {
			e.cov("mem:ctx_ro")
			return e.reject(i, EACCES, "cannot write into ctx field %s", field.Name)
		}
		e.cov("mem:ctx_write")
		return nil
	}
	dst := st.Reg(ins.Dst)
	switch field.Kind {
	case CtxScalar:
		e.cov("mem:ctx_scalar")
		*dst = unknownScalar()
		if size < 8 {
			boundBySize(dst, size, false)
		}
	case CtxPktData:
		e.cov("mem:ctx_pkt_data")
		*dst = RegState{Type: PtrToPacket, ID: e.newID()}
		dst.zeroVar()
	case CtxPktEnd:
		e.cov("mem:ctx_pkt_end")
		*dst = RegState{Type: PtrToPacketEnd}
		dst.zeroVar()
	case CtxBTFTask, CtxBTFTaskNull:
		e.cov("mem:ctx_btf_task")
		// Trusted pointer: not marked maybe_null even though the
		// CtxBTFTaskNull field is null at runtime (see Bug #1).
		*dst = RegState{Type: PtrToBTFID, BTF: btf.TaskStructID, ID: e.newID()}
		dst.zeroVar()
	}
	return nil
}

// checkMapValueAccess validates accesses through PTR_TO_MAP_VALUE
// following check_map_access: fixed offset plus variable bounds must stay
// inside the value.
func (e *env) checkMapValueAccess(st *State, i int, ins isa.Instruction, reg *RegState, off int64, size int, isStore bool) error {
	m := e.mapOf(reg)
	e.cov("mem:map_value:", m.Type.String(), ":", strconv.Itoa(size), ":", strconv.FormatBool(isStore))
	vsize := int64(m.ValueSize)
	lo := off + reg.SMin
	hi := off + reg.SMax
	if reg.VarOff.IsConst() {
		lo = off + int64(reg.VarOff.Value)
		hi = lo
	}
	if lo < 0 {
		e.cov("mem:map_value_neg")
		return e.reject(i, EACCES, "R%d min value is outside of the allowed memory range", ins.Dst)
	}
	if hi+int64(size) > vsize {
		e.cov("mem:map_value_oob")
		return e.reject(i, EACCES, "invalid access to map value, value_size=%d off=%d size=%d", vsize, hi, size)
	}
	if !isStore {
		dst := st.Reg(ins.Dst)
		*dst = unknownScalar()
		if size < 8 {
			boundBySize(dst, size, isa.Mode(ins.Opcode) == isa.ModeMEMSX)
		}
	}
	return nil
}

// checkPacketAccess validates packet loads following check_packet_access:
// the access must be inside the range proven by a data_end comparison.
func (e *env) checkPacketAccess(st *State, i int, ins isa.Instruction, reg *RegState, off int64, size int, isStore bool) error {
	e.covs(siteMemPkt)
	if isStore && e.prog.Type == isa.ProgTypeSocketFilter {
		e.cov("mem:pkt_ro")
		return e.reject(i, EACCES, "cannot write into packet")
	}
	if off < 0 {
		return e.reject(i, EACCES, "R%d offset is outside of the packet", ins.Dst)
	}
	if !reg.VarOff.IsConst() {
		return e.reject(i, EACCES, "R%d variable offset packet access prohibited", ins.Dst)
	}
	if off+int64(size) > int64(reg.Range) {
		e.cov("mem:pkt_oob")
		return e.reject(i, EACCES, "invalid access to packet, off=%d size=%d, R%d(id=%d,off=%d,r=%d)",
			off, size, ins.Src, reg.ID, reg.Off, reg.Range)
	}
	if !isStore {
		dst := st.Reg(ins.Dst)
		*dst = unknownScalar()
		if size < 8 {
			boundBySize(dst, size, false)
		}
	}
	return nil
}

// checkBTFAccess validates loads through PTR_TO_BTF_ID following
// check_ptr_to_btf_access; successful loads are converted to
// exception-handled probe reads during fixup.
func (e *env) checkBTFAccess(st *State, i int, ins isa.Instruction, reg *RegState, off int64, size int, isStore bool) error {
	if s := e.cfg.BTF.Struct(reg.BTF); s != nil {
		e.cov("mem:btf:", s.Name)
	} else {
		e.cov("mem:btf")
	}
	if isStore {
		e.cov("mem:btf_store")
		return e.reject(i, EACCES, "only read is supported on btf_id pointer")
	}
	sizeLimit := 0
	if e.cfg.Bugs.Has(bugs.Bug2TaskAccess) && reg.BTF == btf.TaskStructID {
		// Bug #2: the task_struct validation uses an inflated bound,
		// admitting reads past the object.
		s := e.cfg.BTF.Struct(reg.BTF)
		if s != nil {
			sizeLimit = s.Size + 64
		}
		e.cov("mem:btf_bug2_limit")
	}
	field, err := e.cfg.BTF.CheckAccess(reg.BTF, int(off), size, sizeLimit)
	if err != nil {
		e.cov("mem:btf_oob")
		return e.reject(i, EACCES, "%v", err)
	}
	e.probeMem[i] = true
	dst := st.Reg(ins.Dst)
	if field != nil && field.PointsTo != 0 && size == 8 {
		e.cov("mem:btf_ptr_field")
		// Loading a pointer field yields another trusted btf pointer.
		*dst = RegState{Type: PtrToBTFID, BTF: field.PointsTo, ID: e.newID()}
		dst.zeroVar()
		return nil
	}
	e.cov("mem:btf_scalar")
	*dst = unknownScalar()
	if size < 8 {
		boundBySize(dst, size, false)
	}
	return nil
}

// checkMemRegionAccess validates PTR_TO_MEM accesses (e.g. ringbuf
// reservations) against the region size.
func (e *env) checkMemRegionAccess(st *State, i int, ins isa.Instruction, reg *RegState, off int64, size int, isStore bool) error {
	e.cov("mem:region")
	if off < 0 || off+int64(size) > int64(reg.MemSize) {
		return e.reject(i, EACCES, "invalid access to memory, mem_size=%d off=%d size=%d", reg.MemSize, off, size)
	}
	if !isStore {
		dst := st.Reg(ins.Dst)
		*dst = unknownScalar()
		if size < 8 {
			boundBySize(dst, size, false)
		}
	}
	return nil
}

// checkAtomic validates atomic read-modify-write ops, which both read and
// write memory and may also write a register (fetch variants).
func (e *env) checkAtomic(st *State, i int, ins isa.Instruction) error {
	e.covs(siteMemAtomic)
	if err := e.checkRegRead(st, i, ins.Src); err != nil {
		return err
	}
	if err := e.checkRegRead(st, i, ins.Dst); err != nil {
		return err
	}
	if ins.Imm == isa.AtomicCmpXchg {
		// cmpxchg also uses R0.
		if err := e.checkRegRead(st, i, isa.R0); err != nil {
			return err
		}
	}
	reg := *st.Reg(ins.Dst)
	if reg.Type == Scalar {
		return e.reject(i, EACCES, "R%d invalid mem access 'scalar'", ins.Dst)
	}
	if reg.MaybeNull {
		return e.reject(i, EACCES, "R%d invalid mem access '%s_or_null'", ins.Dst, reg.Type)
	}
	// Atomics are allowed on stack, map values and mem regions only.
	switch reg.Type {
	case PtrToStack, PtrToMapValue, PtrToMem:
	default:
		e.cov("mem:atomic_bad_base")
		return e.reject(i, EACCES, "atomic op on %s prohibited", reg.Type)
	}
	if err := e.recordInsnType(i, reg.Type); err != nil {
		return err
	}
	size := ins.AccessSize()
	off := int64(reg.Off) + int64(ins.Off)

	// Validate as a store (atomics write), routing per base type. The
	// fake instruction is an immediate store so a stack slot becomes
	// misc rather than a register spill.
	fake := isa.StoreImm(isa.Size(ins.Opcode), ins.Dst, ins.Off, 1)
	var err error
	switch reg.Type {
	case PtrToStack:
		err = e.checkStackAccess(st, i, fake, off, size, true)
	case PtrToMapValue:
		err = e.checkMapValueAccess(st, i, fake, &reg, off, size, true)
	case PtrToMem:
		err = e.checkMemRegionAccess(st, i, fake, &reg, off, size, true)
	}
	if err != nil {
		return err
	}

	// Fetch variants clobber the source register with the old value;
	// cmpxchg clobbers R0.
	if ins.Imm&isa.AtomicFetch != 0 || ins.Imm == isa.AtomicXchg {
		r := st.Reg(ins.Src)
		*r = unknownScalar()
		if size < 8 {
			boundBySize(r, size, false)
		}
	}
	if ins.Imm == isa.AtomicCmpXchg {
		r := st.Reg(isa.R0)
		*r = unknownScalar()
		if size < 8 {
			boundBySize(r, size, false)
		}
	}
	return nil
}
