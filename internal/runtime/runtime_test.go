package runtime

import (
	"errors"
	"testing"

	"repro/internal/bugs"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/maps"
)

// run executes raw instructions directly (bypassing the verifier) on a
// fresh machine.
func run(t *testing.T, progType isa.ProgramType, insns ...isa.Instruction) *ExecOutcome {
	t.Helper()
	m := NewMachine(bugs.None())
	p := &isa.Program{Type: progType, GPLCompatible: true, Insns: insns}
	return NewExec(m, p).Run()
}

func TestALUBasics(t *testing.T) {
	cases := []struct {
		name string
		prog []isa.Instruction
		want uint64
	}{
		{"mov+add", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 40), isa.Alu64Imm(isa.ALUAdd, isa.R0, 2), isa.Exit(),
		}, 42},
		{"sub", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 10), isa.Alu64Imm(isa.ALUSub, isa.R0, 30), isa.Exit(),
		}, ^uint64(19)}, // -20
		{"mul reg", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 6), isa.Mov64Imm(isa.R1, 7),
			isa.Alu64Reg(isa.ALUMul, isa.R0, isa.R1), isa.Exit(),
		}, 42},
		{"div", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 99), isa.Alu64Imm(isa.ALUDiv, isa.R0, 10), isa.Exit(),
		}, 9},
		{"div by zero reg", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 99), isa.Mov64Imm(isa.R1, 0),
			isa.Alu64Reg(isa.ALUDiv, isa.R0, isa.R1), isa.Exit(),
		}, 0},
		{"mod by zero keeps dst", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 99), isa.Mov64Imm(isa.R1, 0),
			isa.Alu64Reg(isa.ALUMod, isa.R0, isa.R1), isa.Exit(),
		}, 99},
		{"xor self", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 1234), isa.Alu64Reg(isa.ALUXor, isa.R0, isa.R0), isa.Exit(),
		}, 0},
		{"lsh", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 1), isa.Alu64Imm(isa.ALULsh, isa.R0, 33), isa.Exit(),
		}, 1 << 33},
		{"arsh", []isa.Instruction{
			isa.Mov64Imm(isa.R0, -16), isa.Alu64Imm(isa.ALUArsh, isa.R0, 2), isa.Exit(),
		}, ^uint64(3)}, // -4
		{"alu32 truncates", []isa.Instruction{
			isa.Mov64Imm(isa.R0, -1), isa.Alu32Imm(isa.ALUAdd, isa.R0, 1), isa.Exit(),
		}, 0},
		{"neg", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 5), isa.Neg64(isa.R0), isa.Exit(),
		}, ^uint64(4)},
		{"movsx8", []isa.Instruction{
			isa.Mov64Imm(isa.R1, 0x80),
			{Opcode: isa.ClassALU64 | isa.SrcX | isa.ALUMov, Dst: isa.R0, Src: isa.R1, Off: 8},
			isa.Exit(),
		}, ^uint64(0x7f)}, // sign-extended -128
		{"bswap16", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 0x1234), isa.Endian(isa.R0, 16, true), isa.Exit(),
		}, 0x3412},
	}
	for _, c := range cases {
		out := run(t, isa.ProgTypeSocketFilter, c.prog...)
		if out.Err != nil {
			t.Errorf("%s: error %v", c.name, out.Err)
			continue
		}
		if out.R0 != c.want {
			t.Errorf("%s: R0 = %#x, want %#x", c.name, out.R0, c.want)
		}
	}
}

func TestStackRoundTrip(t *testing.T) {
	out := run(t, isa.ProgTypeSocketFilter,
		isa.LoadImm64(isa.R1, 0x1122334455667788),
		isa.StoreMem(isa.SizeDW, isa.R10, isa.R1, -8),
		isa.LoadMem(isa.SizeW, isa.R0, isa.R10, -8), // low 4 bytes (LE)
		isa.Exit(),
	)
	if out.Err != nil || out.R0 != 0x55667788 {
		t.Errorf("R0 = %#x, err %v", out.R0, out.Err)
	}
}

func TestJumps(t *testing.T) {
	out := run(t, isa.ProgTypeSocketFilter,
		isa.Mov64Imm(isa.R0, 0),
		isa.Mov64Imm(isa.R1, 5),
		isa.JumpImm(isa.JSGT, isa.R1, 3, 1),
		isa.Exit(), // skipped
		isa.Mov64Imm(isa.R0, 1),
		isa.Exit(),
	)
	if out.Err != nil || out.R0 != 1 {
		t.Errorf("R0 = %d, err %v", out.R0, out.Err)
	}
	// Bounded loop: sum 1..10.
	out = run(t, isa.ProgTypeSocketFilter,
		isa.Mov64Imm(isa.R0, 0),
		isa.Mov64Imm(isa.R1, 1),
		isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R1),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, 1),
		isa.JumpImm(isa.JLE, isa.R1, 10, -3),
		isa.Exit(),
	)
	if out.Err != nil || out.R0 != 55 {
		t.Errorf("loop sum = %d, err %v", out.R0, out.Err)
	}
}

func TestJmp32UsesLow32(t *testing.T) {
	out := run(t, isa.ProgTypeSocketFilter,
		isa.Mov64Imm(isa.R0, 0),
		isa.LoadImm64(isa.R1, 0xffffffff00000001),
		isa.Jump32Imm(isa.JEQ, isa.R1, 1, 1),
		isa.Exit(),
		isa.Mov64Imm(isa.R0, 1),
		isa.Exit(),
	)
	if out.Err != nil || out.R0 != 1 {
		t.Errorf("R0 = %d, err %v", out.R0, out.Err)
	}
}

func TestAtomics(t *testing.T) {
	out := run(t, isa.ProgTypeSocketFilter,
		isa.Mov64Imm(isa.R1, 10),
		isa.StoreMem(isa.SizeDW, isa.R10, isa.R1, -8),
		isa.Mov64Imm(isa.R2, 5),
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R3, -8),
		isa.Atomic(isa.SizeDW, isa.R3, isa.R2, 0, isa.AtomicAdd|isa.AtomicFetch),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R2), // + fetched old value
		isa.Exit(),
	)
	// mem = 15, fetched old = 10 -> R0 = 25.
	if out.Err != nil || out.R0 != 25 {
		t.Errorf("R0 = %d, err %v", out.R0, out.Err)
	}
}

func TestCmpXchg(t *testing.T) {
	out := run(t, isa.ProgTypeSocketFilter,
		isa.Mov64Imm(isa.R1, 7),
		isa.StoreMem(isa.SizeDW, isa.R10, isa.R1, -8),
		isa.Mov64Imm(isa.R0, 7),  // expected
		isa.Mov64Imm(isa.R2, 99), // new
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R3, -8),
		isa.Atomic(isa.SizeDW, isa.R3, isa.R2, 0, isa.AtomicCmpXchg),
		isa.LoadMem(isa.SizeDW, isa.R4, isa.R10, -8),
		isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R4), // old(7) + new mem(99)
		isa.Exit(),
	)
	if out.Err != nil || out.R0 != 106 {
		t.Errorf("R0 = %d, err %v", out.R0, out.Err)
	}
}

func TestRawNullDerefOopses(t *testing.T) {
	out := run(t, isa.ProgTypeSocketFilter,
		isa.Mov64Imm(isa.R1, 0),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 8),
		isa.Exit(),
	)
	var fe *kmem.FaultError
	if !errors.As(out.Err, &fe) {
		t.Errorf("null deref outcome = %v, want kernel oops", out.Err)
	}
}

func TestRawOOBIsSilent(t *testing.T) {
	m := NewMachine(bugs.None())
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		// Read 64 bytes past the stack: uninstrumented, silent.
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, 200),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 0),
		isa.Exit(),
	}}
	out := NewExec(m, p).Run()
	if out.Err != nil {
		t.Fatalf("raw OOB faulted: %v", out.Err)
	}
	if m.Dom.SilentCorruptions == 0 {
		t.Error("silent corruption not counted")
	}
}

func TestProbeMemLoadHandlesNull(t *testing.T) {
	m := NewMachine(bugs.None())
	ins := isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 0)
	ins.Meta.ProbeMem = true
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R1, 0),
		ins,
		isa.Exit(),
	}}
	out := NewExec(m, p).Run()
	if out.Err != nil || out.R0 != 0 {
		t.Errorf("probe-mem null read: R0=%d err=%v", out.R0, out.Err)
	}
}

func TestProbeMemOOBReportsKasan(t *testing.T) {
	m := NewMachine(bugs.None())
	task := m.CurrentTaskAddr()
	ins := isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 256) // past task_struct
	ins.Meta.ProbeMem = true
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.LoadImm64(isa.R1, task),
		ins,
		isa.Exit(),
	}}
	out := NewExec(m, p).Run()
	var rep *kmem.Report
	if !errors.As(out.Err, &rep) || rep.Kind != kmem.ReportOOB {
		t.Errorf("probe-mem OOB = %v, want KASAN OOB", out.Err)
	}
}

func TestAsanDispatchCalls(t *testing.T) {
	m := NewMachine(bugs.None())
	// Valid stack address passes the check.
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 1),
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
		isa.Call(helpers.AsanLoadID(8)),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
	}}
	out := NewExec(m, p).Run()
	if out.Err != nil || out.R0 != 1 {
		t.Fatalf("valid asan check: R0=%d err=%v", out.R0, out.Err)
	}
	// Null address is reported.
	p2 := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R1, 0),
		isa.Call(helpers.AsanStoreID(8)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	out = NewExec(m, p2).Run()
	var rep *kmem.Report
	if !errors.As(out.Err, &rep) || rep.Kind != kmem.ReportNull {
		t.Errorf("asan null store = %v", out.Err)
	}
	// Range violation call.
	p3 := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R1, 77),
		isa.Call(helpers.AsanRangeViolation),
		isa.Exit(),
	}}
	out = NewExec(m, p3).Run()
	var rv *RangeViolationError
	if !errors.As(out.Err, &rv) || rv.Value != 77 {
		t.Errorf("range violation = %v", out.Err)
	}
}

func TestHelperMapLookupAndUpdate(t *testing.T) {
	m := NewMachine(bugs.None())
	fd, err := m.CreateMap(maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 2, Name: "a"})
	if err != nil {
		t.Fatalf("CreateMap: %v", err)
	}
	mp := m.MapByFD(fd)
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.LoadImm64(isa.R1, mp.KernAddr),
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0), // key = 0
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -4),
		isa.Call(helpers.MapLookupElem),
		isa.JumpImm(isa.JNE, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.StoreImm(isa.SizeDW, isa.R0, 0, 1234), // write into the value
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	}}
	out := NewExec(m, p).Run()
	if out.Err != nil || out.R0 != 1234 {
		t.Fatalf("map round trip: R0=%d err=%v", out.R0, out.Err)
	}
	// The write landed in the real map storage.
	addr := mp.LookupAddr([]byte{0, 0, 0, 0})
	v, _ := m.Dom.Load(addr, 8)
	if v != 1234 {
		t.Errorf("map storage = %d", v)
	}
}

func TestBpfToBpfCallRuntime(t *testing.T) {
	out := run(t, isa.ProgTypeSocketFilter,
		isa.Mov64Imm(isa.R1, 20),
		isa.Mov64Imm(isa.R6, 7), // callee-saved must survive
		isa.CallPseudo(2),
		isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R6), // r0 = 40 + 7
		isa.Exit(),
		// subprog: r0 = r1 * 2 (clobbers r6 locally)
		isa.Mov64Imm(isa.R6, 999),
		isa.Mov64Reg(isa.R0, isa.R1),
		isa.Alu64Imm(isa.ALUMul, isa.R0, 2),
		isa.Exit(),
	)
	if out.Err != nil || out.R0 != 47 {
		t.Errorf("R0 = %d, err %v", out.R0, out.Err)
	}
}

func TestStepLimit(t *testing.T) {
	m := NewMachine(bugs.None())
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.JumpA(-2),
	}}
	x := NewExec(m, p)
	x.SetStepLimit(1000)
	out := x.Run()
	var sl *StepLimitError
	if !errors.As(out.Err, &sl) {
		t.Errorf("infinite loop outcome = %v, want step limit", out.Err)
	}
}

func TestXDPPacketAccess(t *testing.T) {
	m := NewMachine(bugs.None())
	p := &isa.Program{Type: isa.ProgTypeXDP, GPLCompatible: true, Insns: []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0), // data
		isa.LoadMem(isa.SizeDW, isa.R3, isa.R1, 8), // data_end
		isa.Mov64Reg(isa.R4, isa.R2),
		isa.Alu64Imm(isa.ALUAdd, isa.R4, 2),
		isa.JumpReg(isa.JGT, isa.R4, isa.R3, 2),
		isa.LoadMem(isa.SizeB, isa.R0, isa.R2, 1),
		isa.JumpA(1),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	out := NewExec(m, p).Run()
	if out.Err != nil {
		t.Fatalf("xdp run: %v", out.Err)
	}
	if out.R0 != uint64(1^0x5a) {
		t.Errorf("packet byte = %#x, want %#x", out.R0, 1^0x5a)
	}
}

func TestTracePrintkRecursion(t *testing.T) {
	// A kprobe program calling trace_printk, attached (conceptually) to
	// the printk tracepoint: firing it recurses. Here we drive the
	// tracepoint machinery directly; the kernel facade test covers the
	// full attach path.
	m := NewMachine(bugs.None())
	p := &isa.Program{Type: isa.ProgTypeKprobe, GPLCompatible: true, Insns: []isa.Instruction{
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0x41),
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
		isa.Mov64Imm(isa.R2, 8),
		isa.Call(helpers.TracePrintk),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	var handlerErr error
	m.Trace.Attach("bpf_trace_printk", func(depth int) error {
		out := NewExec(m, p).Run()
		handlerErr = out.Err
		return out.Err
	})
	err := m.Trace.Fire("bpf_trace_printk")
	if err == nil && handlerErr == nil {
		t.Fatal("recursive printk produced no error")
	}
}

func TestOutcomeDeterminism(t *testing.T) {
	mk := func() *ExecOutcome {
		m := NewMachine(bugs.None())
		p := &isa.Program{Type: isa.ProgTypeKprobe, GPLCompatible: true, Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 16),
			isa.Exit(),
		}}
		return NewExec(m, p).Run()
	}
	a, b := mk(), mk()
	if a.R0 != b.R0 || (a.Err == nil) != (b.Err == nil) {
		t.Errorf("nondeterministic outcomes: %v vs %v", a, b)
	}
}

func BenchmarkInterpreter(b *testing.B) {
	m := NewMachine(bugs.None())
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Mov64Imm(isa.R1, 1),
		isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R1),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, 1),
		isa.JumpImm(isa.JLE, isa.R1, 64, -3),
		isa.Exit(),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := NewExec(m, p)
		out := x.Run()
		x.Release() // as the kernel does after every run
		if out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}

func TestKfuncRuntimeBodies(t *testing.T) {
	m := NewMachine(bugs.None())
	run := func(insns ...isa.Instruction) *ExecOutcome {
		p := &isa.Program{Type: isa.ProgTypeKprobe, GPLCompatible: true, Insns: insns}
		return NewExec(m, p).Run()
	}
	// task_from_pid(1000) returns the current task; acquire echoes it.
	out := run(
		isa.Mov64Imm(isa.R1, 1000),
		isa.CallKfunc(102),
		isa.Mov64Reg(isa.R0, isa.R0),
		isa.Exit(),
	)
	if out.Err != nil || out.R0 != m.CurrentTaskAddr() {
		t.Errorf("task_from_pid(1000) = %#x, want task addr", out.R0)
	}
	// Unknown pid yields null.
	out = run(isa.Mov64Imm(isa.R1, 7), isa.CallKfunc(102), isa.Exit())
	if out.Err != nil || out.R0 != 0 {
		t.Errorf("task_from_pid(7) = %#x", out.R0)
	}
	// bpf_obj_new returns a live allocation.
	out = run(isa.Mov64Imm(isa.R1, 32), isa.CallKfunc(106), isa.Exit())
	if out.Err != nil || m.Dom.Resolve(out.R0) == nil {
		t.Errorf("obj_new returned dead memory: %#x err=%v", out.R0, out.Err)
	}
	// rcu lock/unlock are no-ops returning 0.
	out = run(isa.CallKfunc(103), isa.CallKfunc(104), isa.Exit())
	if out.Err != nil || out.R0 != 0 {
		t.Errorf("rcu pair: R0=%d err=%v", out.R0, out.Err)
	}
}

func TestTracepointCtxKinds(t *testing.T) {
	m := NewMachine(bugs.None())
	for _, pt := range []isa.ProgramType{
		isa.ProgTypeTracepoint, isa.ProgTypePerfEvent, isa.ProgTypeSchedCLS,
	} {
		p := &isa.Program{Type: pt, GPLCompatible: true, Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 0),
			isa.Exit(),
		}}
		if out := NewExec(m, p).Run(); out.Err != nil {
			t.Errorf("%s ctx read: %v", pt, out.Err)
		}
	}
}

func TestReadPacketEnv(t *testing.T) {
	m := NewMachine(bugs.None())
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0), isa.Exit(),
	}}
	x := NewExec(m, p)
	if out := x.Run(); out.Err != nil {
		t.Fatal(out.Err)
	}
	env := &execEnv{x: x}
	if b, ok := env.ReadPacket(0, 4); !ok || b[0] != 0 || b[3] != 3 {
		t.Errorf("ReadPacket = %v %v", b, ok)
	}
	if _, ok := env.ReadPacket(60, 16); ok {
		t.Error("over-length packet read succeeded")
	}
	if _, ok := env.ReadPacket(-1, 4); ok {
		t.Error("negative offset read succeeded")
	}
}

func TestRingbufEnvCommit(t *testing.T) {
	m := NewMachine(bugs.None())
	fd, _ := m.CreateMap(maps.Spec{Type: maps.RingBuf, MaxEntries: 64, Name: "rb"})
	mp := m.MapByFD(fd)
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0), isa.Exit(),
	}}
	x := NewExec(m, p)
	env := &execEnv{x: x}
	addr := env.RingbufReserve(mp, 8)
	if addr == 0 {
		t.Fatal("reserve failed")
	}
	if m.Dom.Resolve(addr) == nil {
		t.Fatal("reservation not live")
	}
	env.RingbufCommit(addr, false)
	if m.Dom.Resolve(addr) != nil {
		t.Error("record still live after submit")
	}
	// Stale commit is a no-op.
	env.RingbufCommit(addr, false)
	// Discard path.
	addr2 := env.RingbufReserve(mp, 8)
	env.RingbufCommit(addr2, true)
	if m.Dom.Resolve(addr2) != nil {
		t.Error("record still live after discard")
	}
	// Oversized reservation fails.
	if env.RingbufReserve(mp, 1000) != 0 {
		t.Error("oversized reservation succeeded")
	}
}

func TestMovsxVariants(t *testing.T) {
	cases := []struct {
		off  int16
		in   int64
		want uint64
	}{
		{8, 0x1ff, 0xffffffffffffffff},    // int8(0xff) = -1
		{16, 0x18000, 0xffffffffffff8000}, // int16(0x8000)
		{32, 0x80000000, 0xffffffff80000000},
	}
	for _, c := range cases {
		out := run(t, isa.ProgTypeSocketFilter,
			isa.LoadImm64(isa.R1, uint64(c.in)),
			isa.Instruction{Opcode: isa.ClassALU64 | isa.SrcX | isa.ALUMov, Dst: isa.R0, Src: isa.R1, Off: c.off},
			isa.Exit(),
		)
		if out.Err != nil || out.R0 != c.want {
			t.Errorf("movsx%d(%#x) = %#x, want %#x (err %v)", c.off, c.in, out.R0, c.want, out.Err)
		}
	}
}
