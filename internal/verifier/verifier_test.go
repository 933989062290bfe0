package verifier

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/coverage"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/maps"
)

// testKernel bundles the pieces a verification needs.
type testKernel struct {
	dom  *kmem.Domain
	reg  *helpers.Registry
	btf  *btf.Registry
	maps map[int32]*maps.Map
}

func newTestKernel(t testing.TB) *testKernel {
	t.Helper()
	return &testKernel{
		dom:  kmem.NewDomain(),
		reg:  helpers.NewRegistry(),
		btf:  btf.NewKernelRegistry(),
		maps: make(map[int32]*maps.Map),
	}
}

func (k *testKernel) addMap(t testing.TB, fd int32, spec maps.Spec) *maps.Map {
	t.Helper()
	m, err := maps.New(k.dom, fd, spec)
	if err != nil {
		t.Fatalf("maps.New: %v", err)
	}
	k.maps[fd] = m
	return m
}

func (k *testKernel) config(b bugs.Set) *Config {
	return &Config{
		Bugs:       b,
		Helpers:    k.reg,
		BTF:        k.btf,
		MapByFD:    func(fd int32) *maps.Map { return k.maps[fd] },
		BTFVarAddr: func(id int32) uint64 { return 0xffff880000100000 },
	}
}

func mustVerify(t *testing.T, p *isa.Program, cfg *Config) *Result {
	t.Helper()
	res, err := Verify(p, cfg)
	if err != nil {
		t.Fatalf("Verify rejected valid program: %v", err)
	}
	return res
}

func mustReject(t *testing.T, p *isa.Program, cfg *Config, fragment string) *Error {
	t.Helper()
	_, err := Verify(p, cfg)
	if err == nil {
		t.Fatalf("Verify accepted invalid program (want reject containing %q)", fragment)
	}
	verr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error is %T, want *Error", err)
	}
	if fragment != "" && !strings.Contains(verr.Message(), fragment) {
		t.Fatalf("reject message %q does not contain %q", verr.Message(), fragment)
	}
	return verr
}

func sockProg(insns ...isa.Instruction) *isa.Program {
	return &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: insns}
}

func TestAcceptMinimal(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(isa.Mov64Imm(isa.R0, 0), isa.Exit())
	res := mustVerify(t, p, k.config(bugs.None()))
	if res.InsnProcessed != 2 {
		t.Errorf("InsnProcessed = %d, want 2", res.InsnProcessed)
	}
}

func TestRejectUninitializedRegister(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(isa.Mov64Reg(isa.R0, isa.R5), isa.Exit())
	e := mustReject(t, p, k.config(bugs.None()), "!read_ok")
	if e.Errno != EACCES {
		t.Errorf("errno = %d, want EACCES", e.Errno)
	}
}

func TestRejectNoR0AtExit(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(isa.Mov64Imm(isa.R6, 1), isa.Exit())
	mustReject(t, p, k.config(bugs.None()), "R0 !read_ok")
}

func TestRejectPointerReturn(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(isa.Mov64Reg(isa.R0, isa.R10), isa.Exit())
	mustReject(t, p, k.config(bugs.None()), "leaks addr")
}

func TestRejectFramePointerWrite(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(isa.Mov64Imm(isa.R10, 0), isa.Exit())
	mustReject(t, p, k.config(bugs.None()), "frame pointer")
}

func TestStackReadWrite(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 42),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
	)
	mustVerify(t, p, k.config(bugs.None()))
}

func TestRejectUninitStackRead(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
	)
	mustReject(t, p, k.config(bugs.None()), "uninitialized")
}

func TestRejectStackOOB(t *testing.T) {
	k := newTestKernel(t)
	for _, off := range []int16{-520, 0, 8, -1 /* partial overflow: -1 + 8 > 0 */} {
		p := sockProg(
			isa.StoreImm(isa.SizeDW, isa.R10, off, 0),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		)
		mustReject(t, p, k.config(bugs.None()), "stack")
	}
}

func TestSpillFillPreservesPointer(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(
		isa.Mov64Reg(isa.R6, isa.R1),                  // ctx
		isa.StoreMem(isa.SizeDW, isa.R10, isa.R6, -8), // spill
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R10, -8),  // fill
		isa.LoadMem(isa.SizeW, isa.R0, isa.R7, 0),     // use as ctx
		isa.Exit(),
	)
	mustVerify(t, p, k.config(bugs.None()))
}

func TestCtxAccessRules(t *testing.T) {
	k := newTestKernel(t)
	// Read of skb->len is fine.
	mustVerify(t, sockProg(
		isa.LoadMem(isa.SizeW, isa.R0, isa.R1, 0),
		isa.Exit(),
	), k.config(bugs.None()))
	// Write to read-only field rejected.
	mustReject(t, sockProg(
		isa.Mov64Imm(isa.R2, 1),
		isa.StoreMem(isa.SizeW, isa.R1, isa.R2, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()), "cannot write")
	// Write to cb[] allowed.
	mustVerify(t, sockProg(
		isa.Mov64Imm(isa.R2, 1),
		isa.StoreMem(isa.SizeW, isa.R1, isa.R2, 40),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()))
	// Out-of-bounds ctx offset rejected.
	mustReject(t, sockProg(
		isa.LoadMem(isa.SizeW, isa.R0, isa.R1, 2000),
		isa.Exit(),
	), k.config(bugs.None()), "bpf_context")
	// Partial read of a pointer field rejected.
	mustReject(t, sockProg(
		isa.LoadMem(isa.SizeW, isa.R0, isa.R1, 24),
		isa.Exit(),
	), k.config(bugs.None()), "bpf_context")
}

func TestMapLookupNullCheckRequired(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 1, Name: "a"})
	// Dereference without null check must be rejected.
	p := sockProg(
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, p, k.config(bugs.None()), "map_value_or_null")
}

func TestMapLookupWithNullCheck(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 1, Name: "a"})
	p := sockProg(
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),
		isa.JumpImm(isa.JNE, isa.R0, 0, 1),
		isa.Exit(),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 8),
		isa.Exit(),
	)
	mustVerify(t, p, k.config(bugs.None()))
}

func TestMapValueBoundsChecked(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 16, MaxEntries: 1, Name: "a"})
	p := sockProg(
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),
		isa.JumpImm(isa.JNE, isa.R0, 0, 1),
		isa.Exit(),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 16), // off 16 size 8 > 16
		isa.Exit(),
	)
	mustReject(t, p, k.config(bugs.None()), "map value")
}

func TestVariableMapOffsetBounded(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 1, Name: "a"})
	mk := func(boundCheck bool) *isa.Program {
		insns := []isa.Instruction{
			isa.LoadMapFD(isa.R1, 3),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Call(helpers.MapLookupElem),
			isa.JumpImm(isa.JNE, isa.R0, 0, 1),
			isa.Exit(),
			isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0), // hmm R1 is clobbered; use stack instead
		}
		_ = insns
		var out []isa.Instruction
		out = append(out,
			isa.LoadMapFD(isa.R1, 3),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Call(helpers.MapLookupElem),
			isa.JumpImm(isa.JNE, isa.R0, 0, 1),
			isa.Exit(),
			isa.StoreImm(isa.SizeW, isa.R10, -16, 7),      // unknown-ish slot
			isa.LoadMem(isa.SizeDW, isa.R6, isa.R10, -16), // unknown scalar
		)
		if boundCheck {
			out = append(out, isa.Alu64Imm(isa.ALUAnd, isa.R6, 31)) // bound to [0,31]
		}
		out = append(out,
			isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R6),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
			isa.Exit(),
		)
		return sockProg(out...)
	}
	mustVerify(t, mk(true), k.config(bugs.None()))
	// Without the mask the offset may reach past the value.
	mustReject(t, mk(false), k.config(bugs.None()), "")
}

func TestBranchBoundsRefinement(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 1, Name: "a"})
	// Bound a ctx-loaded scalar with a conditional instead of a mask.
	p := sockProg(
		isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0), // skb->len
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),
		isa.JumpImm(isa.JNE, isa.R0, 0, 1),
		isa.Exit(),
		isa.JumpImm(isa.JLT, isa.R6, 56, 2), // if r6 < 56 continue
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R6),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	)
	mustVerify(t, p, k.config(bugs.None()))
}

func TestDeadBranchNotExplored(t *testing.T) {
	k := newTestKernel(t)
	// The never-taken branch dereferences an uninitialized register;
	// the verifier must prove it dead.
	p := sockProg(
		isa.Mov64Imm(isa.R0, 5),
		isa.JumpImm(isa.JEQ, isa.R0, 5, 2),         // always taken
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R9, 0), // dead
		isa.Exit(),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustVerify(t, p, k.config(bugs.None()))
}

func TestPacketAccessRequiresRangeCheck(t *testing.T) {
	k := newTestKernel(t)
	xdp := func(insns ...isa.Instruction) *isa.Program {
		return &isa.Program{Type: isa.ProgTypeXDP, GPLCompatible: true, Insns: insns}
	}
	// Without the data_end comparison the access must be rejected.
	mustReject(t, xdp(
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0), // data
		isa.LoadMem(isa.SizeB, isa.R0, isa.R2, 0),
		isa.Exit(),
	), k.config(bugs.None()), "invalid access to packet")
	// With the check it verifies.
	mustVerify(t, xdp(
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0), // data
		isa.LoadMem(isa.SizeDW, isa.R3, isa.R1, 8), // data_end
		isa.Mov64Reg(isa.R4, isa.R2),
		isa.Alu64Imm(isa.ALUAdd, isa.R4, 8),
		isa.JumpReg(isa.JGT, isa.R4, isa.R3, 2), // if data+8 > end: exit
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R2, 0),
		isa.JumpA(0),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()))
}

func TestHelperGating(t *testing.T) {
	k := newTestKernel(t)
	// trace_printk from a socket filter: rejected (tracing only).
	p := sockProg(
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Mov64Imm(isa.R2, 8),
		isa.Call(helpers.TracePrintk),
		isa.Exit(),
	)
	mustReject(t, p, k.config(bugs.None()), "not available")
	// Unknown helper id.
	mustReject(t, sockProg(isa.Call(9999), isa.Exit()), k.config(bugs.None()), "invalid func")
	// GPL-only helper without GPL program.
	kp := &isa.Program{Type: isa.ProgTypeKprobe, GPLCompatible: false, Insns: []isa.Instruction{
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Mov64Imm(isa.R2, 8),
		isa.Call(helpers.TracePrintk),
		isa.Exit(),
	}}
	mustReject(t, kp, k.config(bugs.None()), "GPL")
}

func TestHelperArgChecking(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1, Name: "a"})
	// Key pointer reads uninitialized stack: rejected.
	p := sockProg(
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.Call(helpers.MapLookupElem),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, p, k.config(bugs.None()), "stack")
	// Scalar where map pointer expected.
	p2 := sockProg(
		isa.Mov64Imm(isa.R1, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, p2, k.config(bugs.None()), "map_ptr")
}

func TestPointerArithmeticRules(t *testing.T) {
	k := newTestKernel(t)
	// Multiplying a pointer is prohibited.
	mustReject(t, sockProg(
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUMul, isa.R2, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()), "prohibited")
	// 32-bit pointer arithmetic is prohibited.
	mustReject(t, sockProg(
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu32Imm(isa.ALUAdd, isa.R2, 4),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()), "")
	// ptr - ptr of the same object gives a scalar.
	mustVerify(t, sockProg(
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.Alu64Reg(isa.ALUSub, isa.R2, isa.R3),
		isa.Mov64Reg(isa.R0, isa.R2),
		isa.Exit(),
	), k.config(bugs.None()))
}

func TestDivByZeroImmRejected(t *testing.T) {
	k := newTestKernel(t)
	mustReject(t, sockProg(
		isa.Mov64Imm(isa.R0, 10),
		isa.Alu64Imm(isa.ALUDiv, isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()), "division by zero")
}

func TestInvalidShiftRejected(t *testing.T) {
	k := newTestKernel(t)
	mustReject(t, sockProg(
		isa.Mov64Imm(isa.R0, 1),
		isa.Alu64Imm(isa.ALULsh, isa.R0, 64),
		isa.Exit(),
	), k.config(bugs.None()), "shift")
	mustReject(t, sockProg(
		isa.Mov32Imm(isa.R0, 1),
		isa.Alu32Imm(isa.ALURsh, isa.R0, 32),
		isa.Exit(),
	), k.config(bugs.None()), "shift")
}

func TestBoundedLoopVerifies(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R0, 0),
		// loop: r6 += 1; if r6 < 10 goto loop
		isa.Alu64Imm(isa.ALUAdd, isa.R6, 1),
		isa.JumpImm(isa.JLT, isa.R6, 10, -2),
		isa.Exit(),
	)
	mustVerify(t, p, k.config(bugs.None()))
}

func TestUnboundedLoopRejected(t *testing.T) {
	k := newTestKernel(t)
	cfg := k.config(bugs.None())
	cfg.MaxInsnProcessed = 2000
	p := sockProg(
		isa.Mov64Imm(isa.R0, 0),
		isa.JumpA(-2), // tight infinite loop
	)
	e := mustReject(t, p, cfg, "")
	if e.Errno != E2BIG && !strings.Contains(e.Message(), "too large") {
		// Either the insn budget fires or the last-insn check; both
		// reject, budget preferred.
		t.Logf("rejected with: %v", e)
	}
}

func TestBpfToBpfCall(t *testing.T) {
	k := newTestKernel(t)
	p := sockProg(
		isa.Mov64Imm(isa.R1, 21),
		isa.CallPseudo(1), // call subprog: skip the exit below
		isa.Exit(),        // returns R0 from callee
		// subprog: r0 = r1 * 2
		isa.Mov64Reg(isa.R0, isa.R1),
		isa.Alu64Imm(isa.ALUMul, isa.R0, 2),
		isa.Exit(),
	)
	mustVerify(t, p, k.config(bugs.None()))
}

func TestKfuncAcquireRelease(t *testing.T) {
	k := newTestKernel(t)
	kp := func(insns ...isa.Instruction) *isa.Program {
		return &isa.Program{Type: isa.ProgTypeKprobe, GPLCompatible: true, Insns: insns}
	}
	// Acquire without release: rejected.
	mustReject(t, kp(
		isa.Mov64Imm(isa.R1, 1000),
		isa.CallKfunc(int32(btf.KfuncTaskFromPid)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()), "reference")
	// Acquire + null check + release: accepted.
	mustVerify(t, kp(
		isa.Mov64Imm(isa.R1, 1000),
		isa.CallKfunc(int32(btf.KfuncTaskFromPid)),
		isa.JumpImm(isa.JNE, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.Mov64Reg(isa.R1, isa.R0),
		isa.CallKfunc(int32(btf.KfuncTaskRelease)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()))
}

func TestBTFAccessViaRawTracepoint(t *testing.T) {
	k := newTestKernel(t)
	rt := func(insns ...isa.Instruction) *isa.Program {
		return &isa.Program{Type: isa.ProgTypeRawTracepoint, GPLCompatible: true, Insns: insns}
	}
	// Read task->pid through the ctx btf pointer: accepted, probe-mem.
	res := mustVerify(t, rt(
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0), // task ptr
		isa.LoadMem(isa.SizeW, isa.R0, isa.R6, 8),  // task->pid
		isa.Exit(),
	), k.config(bugs.None()))
	if !res.Prog.Insns[1].Meta.ProbeMem {
		t.Error("btf load not marked probe-mem")
	}
	// Read past the struct: rejected without the bug knob.
	mustReject(t, rt(
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R6, 256),
		isa.Exit(),
	), k.config(bugs.None()), "")
	// With Bug #2 armed the same access is (incorrectly) admitted.
	mustVerify(t, rt(
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R6, 256),
		isa.Exit(),
	), k.config(bugs.Of(bugs.Bug2TaskAccess)))
	// Stores through btf pointers always rejected.
	mustReject(t, rt(
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0),
		isa.StoreImm(isa.SizeDW, isa.R6, 0, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	), k.config(bugs.None()), "read")
}

func TestBug1NullnessPropagationKnob(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 48, MaxEntries: 1, Name: "a"})
	// The Listing 2 shape: map_value_or_null compared for equality with
	// a trusted-but-null btf pointer, then dereferenced.
	prog := &isa.Program{Type: isa.ProgTypeRawTracepoint, GPLCompatible: true, Insns: []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 8), // next_task: btf ptr, null at runtime
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),            // r0 = map_value_or_null
		isa.JumpReg(isa.JNE, isa.R0, isa.R6, 2),    // equal path falls through
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0), // deref: "non-null" after propagation
		isa.JumpA(0),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	// Fixed verifier filters btf pointers out of the propagation.
	mustReject(t, prog, k.config(bugs.None()), "map_value_or_null")
	// Buggy verifier accepts.
	mustVerify(t, prog, k.config(bugs.Of(bugs.Bug1NullnessProp)))
}

func TestCVEKnobAllowsNullablePointerALU(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 48, MaxEntries: 1, Name: "a"})
	prog := sockProg(
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),
		isa.Alu64Imm(isa.ALUAdd, isa.R0, 8), // ALU on nullable pointer
		isa.JumpImm(isa.JNE, isa.R0, 0, 1),
		isa.Exit(), // "null" path: exits with R0 = 0 per verifier belief
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, prog, k.config(bugs.None()), "null-check it first")
	mustVerify(t, prog, k.config(bugs.Of(bugs.CVE2022_23222)))
}

func TestAttachRestrictionKnobs(t *testing.T) {
	k := newTestKernel(t)
	printkProg := &isa.Program{
		Type: isa.ProgTypeKprobe, GPLCompatible: true, AttachTo: "bpf_trace_printk",
		Insns: []isa.Instruction{
			isa.Mov64Reg(isa.R1, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Mov64Imm(isa.R2, 8),
			isa.Call(helpers.TracePrintk),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}
	mustReject(t, printkProg, k.config(bugs.None()), "trace_printk")
	mustVerify(t, printkProg, k.config(bugs.Of(bugs.Bug4TracePrintk)))

	k.addMap(t, 4, maps.Spec{Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8, Name: "h"})
	contProg := &isa.Program{
		Type: isa.ProgTypeKprobe, GPLCompatible: true, AttachTo: "contention_begin",
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R1, 4),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Mov64Reg(isa.R3, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R3, -16),
			isa.StoreImm(isa.SizeDW, isa.R10, -16, 0),
			isa.Mov64Imm(isa.R4, 0),
			isa.Call(helpers.MapUpdateElem),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}
	mustReject(t, contProg, k.config(bugs.None()), "contention_begin")
	mustVerify(t, contProg, k.config(bugs.Of(bugs.Bug5Contention)))

	sigProg := &isa.Program{
		Type: isa.ProgTypePerfEvent, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.Mov64Imm(isa.R1, 9),
			isa.Call(helpers.SendSignal),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}
	mustReject(t, sigProg, k.config(bugs.None()), "NMI")
	mustVerify(t, sigProg, k.config(bugs.Of(bugs.Bug6SendSignal)))
}

func TestRangeChecksRecorded(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 1, Name: "a"})
	p := sockProg(
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),
		isa.JumpImm(isa.JNE, isa.R0, 0, 1),
		isa.Exit(),
		isa.StoreImm(isa.SizeW, isa.R10, -16, 7),
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R10, -16),
		isa.Alu64Imm(isa.ALUAnd, isa.R6, 31),
		isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R6), // ptr += var
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	)
	res := mustVerify(t, p, k.config(bugs.None()))
	if len(res.RangeChecks) != 1 {
		t.Fatalf("RangeChecks = %d, want 1", len(res.RangeChecks))
	}
	rc := res.RangeChecks[0]
	if rc.Reg != isa.R6 || rc.UMax != 31 || rc.SMin != 0 {
		t.Errorf("RangeCheck = %+v", rc)
	}
}

func TestFixupResolvesMapFD(t *testing.T) {
	k := newTestKernel(t)
	m := k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1, Name: "a"})
	p := sockProg(
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	res := mustVerify(t, p, k.config(bugs.None()))
	got := res.Prog.Insns[0]
	if got.Src != 0 || got.Imm64 != m.KernAddr {
		t.Errorf("fixed-up ld_imm64 = %+v, want addr %#x", got, m.KernAddr)
	}
}

// TestFixupFallbacks pins what the shared fixup rewrite loop keeps on its
// two paths: a scratch verification whose program cannot be fixed up is
// rejected with the fixup message, and a verdict-cache hit that cannot be
// fixed up is demoted to a miss (materialize returns ok == false) so the
// caller verifies from scratch.
func TestFixupFallbacks(t *testing.T) {
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1, Name: "a"})
	task := k.btf.StructByName("task_struct")
	for _, tc := range []struct {
		name  string
		prog  *isa.Program
		stale func(*Config)
		want  string // scratch rejection under the stale config
	}{
		{
			name:  "btf var without resolver",
			prog:  sockProg(isa.LoadBTFID(isa.R1, int32(task.ID)), isa.Mov64Imm(isa.R0, 0), isa.Exit()),
			stale: func(c *Config) { c.BTFVarAddr = nil },
			want:  "fixup: no btf var resolver",
		},
		{
			name: "map value fd now a hash map",
			prog: sockProg(isa.LoadMapValue(isa.R1, 3, 0), isa.Mov64Imm(isa.R0, 0), isa.Exit()),
			stale: func(c *Config) {
				h := newTestKernel(t).addMap(t, 3, maps.Spec{Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 1, Name: "h"})
				c.MapByFD = func(int32) *maps.Map { return h }
			},
			want: "direct value access on hash map is not allowed",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := k.config(bugs.None())
			res := mustVerify(t, tc.prog, cfg)
			v := newCachedVerdict(CanonicalProgramBytes(tc.prog), res, nil, nil)
			tc.stale(cfg)
			cfg.Cov = coverage.NewMap()
			if _, _, ok := v.materialize(tc.prog, cfg); ok {
				t.Fatal("cache hit served although the program no longer fixes up")
			}
			if cfg.Cov.Count() != 0 {
				t.Error("failed materialization replayed coverage")
			}
			_, err := Verify(tc.prog, cfg)
			var ve *Error
			if !errors.As(err, &ve) || ve.Message() != tc.want {
				t.Fatalf("scratch verification: %v, want rejection %q", err, tc.want)
			}
		})
	}
}

func TestCoverageRecorded(t *testing.T) {
	k := newTestKernel(t)
	cfg := k.config(bugs.None())
	cfg.Cov = coverage.NewMap()
	p := sockProg(isa.Mov64Imm(isa.R0, 0), isa.Exit())
	mustVerify(t, p, cfg)
	if cfg.Cov.Count() == 0 {
		t.Error("no coverage recorded")
	}
}

func TestStatePruning(t *testing.T) {
	k := newTestKernel(t)
	// A diamond whose sides produce identical states: the join must
	// prune rather than double-explore downstream.
	var insns []isa.Instruction
	insns = append(insns, isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0))
	// 12 sequential diamonds.
	for d := 0; d < 12; d++ {
		insns = append(insns,
			isa.JumpImm(isa.JEQ, isa.R6, int32(d), 1),
			isa.Mov64Imm(isa.R7, 0),
		)
	}
	insns = append(insns, isa.Mov64Imm(isa.R0, 0), isa.Exit())
	p := sockProg(insns...)
	cfg := k.config(bugs.None())
	res := mustVerify(t, p, cfg)
	// Without pruning this needs ~2^12 paths; with pruning far fewer.
	if res.InsnProcessed > 50000 {
		t.Errorf("pruning ineffective: processed %d insns", res.InsnProcessed)
	}
}

func TestR0BoundsRecorded(t *testing.T) {
	k := newTestKernel(t)
	res := mustVerify(t, sockProg(
		isa.LoadMem(isa.SizeW, isa.R0, isa.R1, 0),
		isa.Alu64Imm(isa.ALUAnd, isa.R0, 0xff),
		isa.JumpImm(isa.JGT, isa.R0, 128, 1),
		isa.Exit(),
		isa.Mov64Imm(isa.R0, 7),
		isa.Exit(),
	), k.config(bugs.None()))
	b := res.R0Bounds
	if !b.Valid {
		t.Fatal("no exit bounds recorded")
	}
	// Union of [0,128] and {7} = [0,128].
	if b.UMin != 0 || b.UMax != 128 {
		t.Errorf("bounds = %+v, want [0,128]", b)
	}
	if !b.Contains(7) || !b.Contains(128) || b.Contains(129) {
		t.Errorf("Contains wrong for %+v", b)
	}
}
