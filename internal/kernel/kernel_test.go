package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/lockdep"
	"repro/internal/maps"
	"repro/internal/oracle"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/verifier"
)

func newKernel(t *testing.T, b bugs.Set, sanitize bool) *Kernel {
	t.Helper()
	return New(Config{Version: BPFNext, Bugs: b, Sanitize: sanitize})
}

func mustLoad(t *testing.T, k *Kernel, p *isa.Program) *LoadedProg {
	t.Helper()
	lp, err := k.LoadProgram(p)
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	return lp
}

func TestLoadAndRunMinimal(t *testing.T) {
	k := newKernel(t, bugs.None(), true)
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 7), isa.Exit()},
	})
	out := k.Run(lp)
	if out.Err != nil || out.R0 != 7 {
		t.Fatalf("run: R0=%d err=%v", out.R0, out.Err)
	}
}

func TestSanitizedProgramStillCorrect(t *testing.T) {
	k := newKernel(t, bugs.None(), true)
	fd, err := k.CreateMap(maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 16, MaxEntries: 2, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R1, fd),
			isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R2, -4),
			isa.Call(helpers.MapLookupElem),
			isa.JumpImm(isa.JNE, isa.R0, 0, 2),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
			isa.StoreImm(isa.SizeDW, isa.R0, 8, 55),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 8),
			isa.Exit(),
		},
	})
	if lp.SanStats == nil || lp.SanStats.MemChecks == 0 {
		t.Fatal("sanitation did not run")
	}
	out := k.Run(lp)
	if out.Err != nil || out.R0 != 55 {
		t.Fatalf("sanitized map program: R0=%d err=%v", out.R0, out.Err)
	}
}

// bug1Prog is the Listing 2 shape: nullness propagation against a trusted
// btf pointer that is null at runtime.
func bug1Prog(fd int32) *isa.Program {
	return &isa.Program{
		Type: isa.ProgTypeRawTracepoint, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 8), // trusted btf ptr, null at runtime
			isa.LoadMapFD(isa.R1, fd),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Call(helpers.MapLookupElem),
			isa.JumpReg(isa.JNE, isa.R0, isa.R6, 2),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0), // null deref at runtime
			isa.JumpA(0),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}
}

func TestBug1EndToEnd(t *testing.T) {
	// Map with no entry at the key: lookup returns null. (Array maps
	// always resolve, so use a hash map: absent key -> null value.)
	k := newKernel(t, bugs.Of(bugs.Bug1NullnessProp), true)
	fd, err := k.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 4, Name: "h"})
	if err != nil {
		t.Fatal(err)
	}
	lp := mustLoad(t, k, bug1Prog(fd))
	out := k.Run(lp)
	a := Classify(out.Err)
	if a == nil || a.Indicator != Indicator1 {
		t.Fatalf("bug1 anomaly = %v (err %v)", a, out.Err)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.Bug1NullnessProp {
		t.Errorf("triage = %v, want bug1", got)
	}
	// The fixed kernel rejects the program outright.
	kf := newKernel(t, bugs.None(), true)
	fd2, _ := kf.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 4, Name: "h"})
	if _, err := kf.LoadProgram(bug1Prog(fd2)); err == nil {
		t.Error("fixed kernel accepted the bug1 program")
	}
}

// TestTriageRemovesOneKnobAtATime: Triage re-verifies with exactly one
// knob removed each time. Here Bug #1 and CVE-2022-23222 each admit the
// pointer arithmetic on their own (Bug #1 clears the map value's
// nullness on the equal edge, the CVE knob allows arithmetic on it
// anyway), so neither removal alone makes the verifier reject and the
// finding stays unattributed; removing both would reject it.
func TestTriageRemovesOneKnobAtATime(t *testing.T) {
	prog := func(fd int32) *isa.Program {
		return &isa.Program{
			Type: isa.ProgTypeRawTracepoint, GPLCompatible: true,
			Insns: []isa.Instruction{
				isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 8), // trusted btf ptr
				isa.LoadMapFD(isa.R1, fd),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
				isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
				isa.Call(helpers.MapLookupElem),
				isa.JumpReg(isa.JNE, isa.R0, isa.R6, 1),
				isa.Alu64Imm(isa.ALUAdd, isa.R0, 8),
				isa.Mov64Imm(isa.R0, 0),
				isa.Exit(),
			},
		}
	}
	a := &Anomaly{Kind: "kasan:slab-out-of-bounds", Indicator: Indicator1, Err: &kmem.Report{Kind: kmem.ReportOOB}}
	for _, tc := range []struct {
		armed bugs.Set
		want  bugs.ID
	}{
		{bugs.Of(bugs.Bug1NullnessProp, bugs.CVE2022_23222), 0},
		{bugs.Of(bugs.Bug1NullnessProp), bugs.Bug1NullnessProp},
		{bugs.Of(bugs.CVE2022_23222), bugs.CVE2022_23222},
	} {
		k := newKernel(t, tc.armed, true)
		fd, err := k.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 4, Name: "h"})
		if err != nil {
			t.Fatal(err)
		}
		p := prog(fd)
		mustLoad(t, k, p)
		before := k.Cfg.Bugs.Clone()
		if got := k.Triage(a, p); got != tc.want {
			t.Errorf("armed %v: triage = %v, want %v", tc.armed, got, tc.want)
		}
		if len(k.Cfg.Bugs) != len(before) {
			t.Errorf("armed %v: Triage changed the kernel's knob set to %v", tc.armed, k.Cfg.Bugs)
		}
	}
	// Neither knob: the verifier rejects the arithmetic.
	k := newKernel(t, bugs.None(), true)
	fd, _ := k.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 4, Name: "h"})
	if _, err := k.LoadProgram(prog(fd)); err == nil {
		t.Error("a kernel with neither knob accepted the program")
	}
}

func TestBug2EndToEnd(t *testing.T) {
	prog := &isa.Program{
		Type: isa.ProgTypeRawTracepoint, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0),   // real task ptr
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R6, 256), // past the object
			isa.Exit(),
		},
	}
	k := newKernel(t, bugs.Of(bugs.Bug2TaskAccess), true)
	lp := mustLoad(t, k, prog)
	out := k.Run(lp)
	a := Classify(out.Err)
	if a == nil || a.Indicator != Indicator1 || !strings.Contains(a.Kind, "out-of-bounds") {
		t.Fatalf("bug2 anomaly = %v (err %v)", a, out.Err)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.Bug2TaskAccess {
		t.Errorf("triage = %v", got)
	}
	kf := newKernel(t, bugs.None(), true)
	if _, err := kf.LoadProgram(prog); err == nil {
		t.Error("fixed kernel accepted the bug2 program")
	}
}

func TestBug3EndToEnd(t *testing.T) {
	// R6 gets a genuine range [0,15]; the buggy backtracking collapses
	// it to the constant 0 after a kfunc call, so the verifier under-
	// approximates. The alu_limit assertion catches the divergence.
	prog := func(fd int32) *isa.Program {
		return &isa.Program{
			Type: isa.ProgTypeKprobe, GPLCompatible: true,
			Insns: []isa.Instruction{
				isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0), // random scalar
				isa.Alu64Imm(isa.ALUAnd, isa.R6, 15),       // range [0,15]
				isa.CallKfunc(int32(btf.KfuncRcuReadLock)), // bug3 collapses r6
				isa.LoadMapFD(isa.R1, fd),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
				isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
				isa.Call(helpers.MapLookupElem),
				isa.JumpImm(isa.JNE, isa.R0, 0, 2),
				isa.Mov64Imm(isa.R0, 0),
				isa.Exit(),
				isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R6), // believed += 0
				isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
				isa.Exit(),
			},
		}
	}
	k := newKernel(t, bugs.Of(bugs.Bug3KfuncBacktrack), true)
	fd, _ := k.CreateMap(maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1, Name: "a"})
	lp := mustLoad(t, k, prog(fd))
	// Run until the random ctx value makes r6 nonzero (deterministic
	// rng: first run usually suffices, but loop for robustness).
	var a *Anomaly
	for i := 0; i < 8 && a == nil; i++ {
		a = Classify(k.Run(lp).Err)
	}
	if a == nil || a.Indicator != Indicator1 {
		t.Fatalf("bug3 anomaly = %v", a)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.Bug3KfuncBacktrack {
		t.Errorf("triage = %v", got)
	}
}

func TestBug4EndToEnd(t *testing.T) {
	prog := &isa.Program{
		Type: isa.ProgTypeKprobe, GPLCompatible: true, AttachTo: "bpf_trace_printk",
		Insns: []isa.Instruction{
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0x41),
			isa.Mov64Reg(isa.R1, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
			isa.Mov64Imm(isa.R2, 8),
			isa.Call(helpers.TracePrintk),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}
	k := newKernel(t, bugs.Of(bugs.Bug4TracePrintk), true)
	lp := mustLoad(t, k, prog)
	out := k.Run(lp)
	a := Classify(out.Err)
	if a == nil || a.Indicator != Indicator2 {
		t.Fatalf("bug4 anomaly = %v (err %v)", a, out.Err)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.Bug4TracePrintk {
		t.Errorf("triage = %v", got)
	}
	kf := newKernel(t, bugs.None(), true)
	if _, err := kf.LoadProgram(prog); err == nil {
		t.Error("fixed kernel accepted the bug4 program")
	}
}

func TestBug5EndToEnd(t *testing.T) {
	// Figure 2: a kprobe program attached to contention_begin calls a
	// lock-taking helper; the contended acquisition re-fires the
	// tracepoint.
	prog := func(fd int32) *isa.Program {
		return &isa.Program{
			Type: isa.ProgTypeKprobe, GPLCompatible: true, AttachTo: "contention_begin",
			Insns: []isa.Instruction{
				isa.LoadMapFD(isa.R1, fd),
				isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R2, -4),
				isa.StoreImm(isa.SizeDW, isa.R10, -16, 1),
				isa.Mov64Reg(isa.R3, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R3, -16),
				isa.Mov64Imm(isa.R4, 0),
				isa.Call(helpers.MapUpdateElem), // takes the bucket lock, contended
				isa.Mov64Imm(isa.R0, 0),
				isa.Exit(),
			},
		}
	}
	k := newKernel(t, bugs.Of(bugs.Bug5Contention), true)
	fd, _ := k.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8, Name: "h"})
	lp := mustLoad(t, k, prog(fd))
	out := k.Run(lp)
	a := Classify(out.Err)
	if a == nil || a.Indicator != Indicator2 {
		t.Fatalf("bug5 anomaly = %v (err %v)", a, out.Err)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.Bug5Contention {
		t.Errorf("triage = %v", got)
	}
}

func TestBug6EndToEnd(t *testing.T) {
	prog := &isa.Program{
		Type: isa.ProgTypePerfEvent, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.Mov64Imm(isa.R1, 9),
			isa.Call(helpers.SendSignal),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}
	k := newKernel(t, bugs.Of(bugs.Bug6SendSignal), true)
	lp := mustLoad(t, k, prog)
	out := k.Run(lp)
	a := Classify(out.Err)
	if a == nil || a.Indicator != Indicator2 || a.Kind != "kernel-panic" {
		t.Fatalf("bug6 anomaly = %v (err %v)", a, out.Err)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.Bug6SendSignal {
		t.Errorf("triage = %v", got)
	}
}

func TestBug7Dispatcher(t *testing.T) {
	k := newKernel(t, bugs.Of(bugs.Bug7Dispatcher), true)
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeXDP, GPLCompatible: true,
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 2), isa.Exit()},
	})
	var a *Anomaly
	for i := 0; i < 10 && a == nil; i++ {
		k.UpdateDispatcher(lp)
		a = Classify(k.RunDispatcher().Err)
	}
	if a == nil {
		t.Fatal("bug7 never triggered")
	}
	if got := k.Triage(a, nil); got != bugs.Bug7Dispatcher {
		t.Errorf("triage = %v", got)
	}
}

func TestBug8Kmemdup(t *testing.T) {
	big := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true}
	for i := 0; i < 600; i++ {
		big.Insns = append(big.Insns, isa.Mov64Imm(isa.R0, int32(i)))
	}
	big.Insns = append(big.Insns, isa.Exit())
	k := newKernel(t, bugs.Of(bugs.Bug8Kmemdup), false)
	_, err := k.LoadProgram(big)
	a := Classify(err)
	if a == nil || a.Kind != "syscall-warning" {
		t.Fatalf("bug8 = %v (err %v)", a, err)
	}
	if got := k.Triage(a, big); got != bugs.Bug8Kmemdup {
		t.Errorf("triage = %v", got)
	}
	// Fixed kernel loads it fine.
	kf := newKernel(t, bugs.None(), false)
	if _, err := kf.LoadProgram(big); err != nil {
		t.Errorf("fixed kernel rejected the big program: %v", err)
	}
}

func TestBug9MapDump(t *testing.T) {
	k := newKernel(t, bugs.Of(bugs.Bug9BucketIter), false)
	fd, _ := k.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8, Name: "h"})
	m := k.MapByFD(fd)
	m.Update([]byte{1, 0, 0, 0}, make([]byte, 8), maps.UpdateAny)
	_, err := k.DumpMap(fd)
	a := Classify(err)
	if a == nil || a.Indicator != Indicator1 {
		t.Fatalf("bug9 = %v (err %v)", a, err)
	}
	if got := k.Triage(a, nil); got != bugs.Bug9BucketIter {
		t.Errorf("triage = %v", got)
	}
}

func TestBug10TaskStorage(t *testing.T) {
	prog := func(fd int32) *isa.Program {
		return &isa.Program{
			Type: isa.ProgTypeKprobe, GPLCompatible: true,
			Insns: []isa.Instruction{
				isa.Call(helpers.GetCurrentTaskBTF),
				isa.Mov64Reg(isa.R6, isa.R0),
				isa.LoadMapFD(isa.R1, fd),
				isa.Mov64Reg(isa.R2, isa.R6),
				isa.Mov64Imm(isa.R3, 0),
				isa.Mov64Imm(isa.R4, 0),
				isa.Call(helpers.TaskStorageGet),
				isa.Mov64Imm(isa.R0, 0),
				isa.Exit(),
			},
		}
	}
	k := newKernel(t, bugs.Of(bugs.Bug10IrqWork), true)
	fd, _ := k.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 8, MaxEntries: 4, Name: "ts"})
	lp := mustLoad(t, k, prog(fd))
	var a *Anomaly
	for i := 0; i < 4 && a == nil; i++ {
		a = Classify(k.Run(lp).Err)
	}
	if a == nil || a.Indicator != Indicator2 {
		t.Fatalf("bug10 anomaly = %v", a)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.Bug10IrqWork {
		t.Errorf("triage = %v", got)
	}
}

func TestBug11XDPOffload(t *testing.T) {
	k := newKernel(t, bugs.Of(bugs.Bug11XDPDevProg), false)
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeXDP, GPLCompatible: true,
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 2), isa.Exit()},
	})
	lp.Offloaded = true
	out := k.Run(lp)
	a := Classify(out.Err)
	if a == nil || a.Kind != "xdp-env" {
		t.Fatalf("bug11 = %v (err %v)", a, out.Err)
	}
	if got := k.Triage(a, nil); got != bugs.Bug11XDPDevProg {
		t.Errorf("triage = %v", got)
	}
}

func TestCVEEndToEnd(t *testing.T) {
	// Listing 1 shape on a v5.15 kernel: ALU on the nullable pointer,
	// null branch believed zero, runtime access through the shifted
	// null pointer.
	prog := func(fd int32) *isa.Program {
		return &isa.Program{
			Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
			Insns: []isa.Instruction{
				isa.LoadMapFD(isa.R1, fd),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
				isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
				isa.Call(helpers.MapLookupElem),
				isa.Alu64Imm(isa.ALUAdd, isa.R0, 8), // ALU on nullable ptr
				isa.JumpImm(isa.JNE, isa.R0, 0, 2),  // runtime: 8 != 0 -> taken
				isa.Mov64Imm(isa.R0, 0),
				isa.Exit(),
				// "Non-null" branch: verifier thinks map_value+8.
				isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
				isa.Exit(),
			},
		}
	}
	k := New(Config{Version: V515, Sanitize: true})
	fd, _ := k.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 4, Name: "h"})
	lp := mustLoad(t, k, prog(fd))
	out := k.Run(lp)
	a := Classify(out.Err)
	if a == nil || a.Indicator != Indicator1 {
		t.Fatalf("CVE anomaly = %v (err %v)", a, out.Err)
	}
	if got := k.Triage(a, lp.Orig); got != bugs.CVE2022_23222 {
		t.Errorf("triage = %v", got)
	}
	// bpf-next (CVE fixed) rejects.
	kf := New(Config{Version: BPFNext, Sanitize: true})
	fd2, _ := kf.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 4, Name: "h"})
	if _, err := kf.LoadProgram(prog(fd2)); err == nil {
		t.Error("bpf-next accepted the CVE program")
	}
}

func TestVersionFeatureGating(t *testing.T) {
	// v5.15 has no kfuncs.
	prog := &isa.Program{
		Type: isa.ProgTypeKprobe, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.CallKfunc(int32(btf.KfuncRcuReadLock)),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}
	k515 := New(Config{Version: V515})
	if _, err := k515.LoadProgram(prog); err == nil {
		t.Error("v5.15 accepted a kfunc call")
	}
	k61 := New(Config{Version: V61})
	if _, err := k61.LoadProgram(prog); err != nil {
		t.Errorf("v6.1 rejected a kfunc call: %v", err)
	}
}

func TestClassifyNonBugs(t *testing.T) {
	if Classify(nil) != nil {
		t.Error("nil error classified")
	}
	if a := Classify(&verifier.Error{Msg: "x"}); a != nil {
		t.Error("verifier rejection classified as anomaly")
	}
}

// TestClassifyErrorWalk pins Classify's mapping for every error type it
// knows, each bare and wrapped once: the same Kind and Indicator either
// way, with Err the error passed in.
func TestClassifyErrorWalk(t *testing.T) {
	lock := &lockdep.Class{Name: "irq_work_lock"}
	cases := []struct {
		err  error
		kind string // "" for faults that are not anomalies
		ind  Indicator
	}{
		{&kmem.Report{Kind: kmem.ReportOOB, Size: 8}, "kasan:slab-out-of-bounds", Indicator1},
		{&kmem.Report{Kind: kmem.ReportNull, Size: 8}, "kasan:null-ptr-deref", Indicator1},
		{&kmem.FaultError{Addr: 0x10, Size: 8}, "kernel-oops", Indicator1},
		{&runtime.RangeViolationError{PC: 3, Value: 9}, "alu-limit-violation", Indicator1},
		{&oracle.Violation{Check: "scalar-range"}, "soundness:scalar-range", IndicatorSoundness},
		{&lockdep.Violation{Kind: lockdep.Inversion, Lock: lock, Against: &lockdep.Class{Name: "b"}}, "lockdep:" + lockdep.Inversion.String(), Indicator2},
		{&lockdep.Violation{Kind: lockdep.Recursion, Lock: lock, Against: lock}, "lockdep:" + lockdep.Recursion.String(), Indicator2},
		{&trace.RecursionError{Tracepoint: "tp", Depth: 4}, "trace-recursion", Indicator2},
		{&helpers.PanicError{Reason: "send_signal"}, "kernel-panic", Indicator2},
		{&SyscallBugError{Size: 8192}, "syscall-warning", IndicatorNone},
		{&XDPEnvError{}, "xdp-env", IndicatorNone},
		{&verifier.Error{Msg: "x"}, "", 0},
		{&verifier.TimeoutError{Timeout: time.Second}, "", 0},
		{&runtime.StepLimitError{Steps: 1 << 20}, "", 0},
		{&runtime.WatchdogError{Timeout: time.Second}, "", 0},
		{errors.New("plain"), "", 0},
	}
	for _, tc := range cases {
		for _, err := range []error{tc.err, fmt.Errorf("wrapped: %w", tc.err)} {
			a := Classify(err)
			if tc.kind == "" {
				if a != nil {
					t.Errorf("Classify(%v) = %v, want nil", err, a)
				}
				continue
			}
			if a == nil {
				t.Errorf("Classify(%v) = nil, want %s", err, tc.kind)
				continue
			}
			if a.Kind != tc.kind || a.Indicator != tc.ind || a.Err != err {
				t.Errorf("Classify(%v) = {%s %v %v}, want {%s %v %v}", err, a.Kind, a.Indicator, a.Err, tc.kind, tc.ind, err)
			}
		}
	}
}

// TestTriageSignatures pins the bug each runtime signature attributes
// to, with the error bare and wrapped once: Bug #6 from a kernel panic,
// #10 from an irq_work_lock inversion, #3 from a range violation and from
// an oracle violation in a program with a kfunc call, #7 from the
// dispatcher's null dereference and #9 from any KASAN report, and 0 where
// the signature's condition does not hold. Without a program Triage
// re-verifies nothing, and it then allocates nothing.
func TestTriageSignatures(t *testing.T) {
	irq := &lockdep.Class{Name: "irq_work_lock"}
	kfunc := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.CallKfunc(int32(btf.KfuncRcuReadLock)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	cases := []struct {
		name  string
		armed bugs.Set
		err   error
		prog  *isa.Program
		want  bugs.ID
	}{
		{"#6 panic", bugs.Of(bugs.Bug6SendSignal), &helpers.PanicError{Reason: "send_signal"}, nil, bugs.Bug6SendSignal},
		{"#6 unarmed", bugs.None(), &helpers.PanicError{Reason: "send_signal"}, nil, 0},
		{"#10 inversion", bugs.None(), &lockdep.Violation{Kind: lockdep.Inversion, Lock: &lockdep.Class{Name: "a"}, Against: irq}, nil, bugs.Bug10IrqWork},
		{"#10 other lock", bugs.Of(bugs.Bug10IrqWork), &lockdep.Violation{Kind: lockdep.Inversion, Lock: &lockdep.Class{Name: "a"}, Against: &lockdep.Class{Name: "b"}}, nil, 0},
		{"#10 recursion", bugs.Of(bugs.Bug10IrqWork), &lockdep.Violation{Kind: lockdep.Recursion, Lock: irq, Against: irq}, nil, 0},
		{"#3 range violation", bugs.Of(bugs.Bug3KfuncBacktrack), &runtime.RangeViolationError{PC: 1, Value: 9}, kfunc, bugs.Bug3KfuncBacktrack},
		{"#3 oracle violation", bugs.Of(bugs.Bug3KfuncBacktrack), &oracle.Violation{Insn: 1, Reg: 6, Check: "tnum"}, kfunc, bugs.Bug3KfuncBacktrack},
		{"#3 without program", bugs.Of(bugs.Bug3KfuncBacktrack), &runtime.RangeViolationError{PC: 1, Value: 9}, nil, 0},
		{"#7 dispatcher", bugs.None(), &kmem.Report{Kind: kmem.ReportNull, Addr: 16, Size: 8, Tag: "bpf_dispatcher"}, nil, bugs.Bug7Dispatcher},
		{"#9 report", bugs.Of(bugs.Bug9BucketIter), &kmem.Report{Kind: kmem.ReportOOB, Size: 8}, nil, bugs.Bug9BucketIter},
		{"#7 before #9", bugs.Of(bugs.Bug9BucketIter), &kmem.Report{Kind: kmem.ReportNull, Size: 8, Tag: "bpf_dispatcher"}, nil, bugs.Bug7Dispatcher},
		{"#9 unarmed", bugs.None(), &kmem.Report{Kind: kmem.ReportOOB, Size: 8}, nil, 0},
	}
	for _, tc := range cases {
		k := New(Config{Version: BPFNext, Bugs: tc.armed})
		for _, err := range []error{tc.err, fmt.Errorf("wrapped: %w", tc.err)} {
			a := Classify(err)
			if a == nil {
				t.Fatalf("%s: Classify(%v) = nil", tc.name, err)
			}
			if got := k.Triage(a, tc.prog); got != tc.want {
				t.Errorf("%s: Triage(%v) = %v, want %v", tc.name, err, got, tc.want)
			}
			if allocs := testing.AllocsPerRun(20, func() { k.Triage(a, nil) }); allocs != 0 {
				t.Errorf("%s: Triage(%v, nil) allocates %.1f times, want 0", tc.name, err, allocs)
			}
		}
	}
}

func TestVersionDefaultBugSets(t *testing.T) {
	if BPFNext.DefaultBugs().Has(bugs.CVE2022_23222) {
		t.Error("bpf-next still has the CVE")
	}
	if !V515.DefaultBugs().Has(bugs.CVE2022_23222) {
		t.Error("v5.15 missing the CVE")
	}
	for _, id := range []bugs.ID{bugs.Bug1NullnessProp, bugs.Bug2TaskAccess, bugs.Bug3KfuncBacktrack} {
		if V515.DefaultBugs().Has(id) || V61.DefaultBugs().Has(id) {
			t.Errorf("%v armed before bpf-next", id)
		}
		if !BPFNext.DefaultBugs().Has(id) {
			t.Errorf("%v missing from bpf-next", id)
		}
	}
}

func TestTailCall(t *testing.T) {
	k := newKernel(t, bugs.None(), true)
	paFD, err := k.CreateMap(maps.Spec{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 2, Name: "jt"})
	if err != nil {
		t.Fatal(err)
	}
	target := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 77), isa.Exit()},
	})
	if err := k.SetProgArraySlot(paFD, 0, target.FD); err != nil {
		t.Fatal(err)
	}
	caller := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R2, paFD),
			isa.Mov64Imm(isa.R3, 0),
			isa.Call(helpers.TailCall),
			isa.Mov64Imm(isa.R0, 1), // only on tail-call failure
			isa.Exit(),
		},
	})
	out := k.Run(caller)
	if out.Err != nil || out.R0 != 77 {
		t.Fatalf("tail call: R0=%d err=%v", out.R0, out.Err)
	}
	// Empty slot: falls through.
	caller2 := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R2, paFD),
			isa.Mov64Imm(isa.R3, 1),
			isa.Call(helpers.TailCall),
			isa.Mov64Imm(isa.R0, 5),
			isa.Exit(),
		},
	})
	if out := k.Run(caller2); out.Err != nil || out.R0 != 5 {
		t.Fatalf("failed tail call: R0=%d err=%v", out.R0, out.Err)
	}
}

func TestTailCallChainBounded(t *testing.T) {
	// A program that tail-calls itself: the chain must be cut at
	// MAX_TAIL_CALL_CNT rather than looping forever.
	k := newKernel(t, bugs.None(), false)
	paFD, _ := k.CreateMap(maps.Spec{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1, Name: "jt"})
	self := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R2, paFD),
			isa.Mov64Imm(isa.R3, 0),
			isa.Call(helpers.TailCall),
			isa.Mov64Imm(isa.R0, 9), // reached when the chain is cut
			isa.Exit(),
		},
	})
	if err := k.SetProgArraySlot(paFD, 0, self.FD); err != nil {
		t.Fatal(err)
	}
	out := k.Run(self)
	if out.Err != nil || out.R0 != 9 {
		t.Fatalf("self tail call: R0=%d err=%v", out.R0, out.Err)
	}
}

func TestProgArrayHelperCompat(t *testing.T) {
	k := newKernel(t, bugs.None(), false)
	paFD, _ := k.CreateMap(maps.Spec{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1, Name: "jt"})
	arrFD, _ := k.CreateMap(maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1, Name: "a"})
	// Lookup on a prog array is rejected.
	if _, err := k.LoadProgram(&isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R1, paFD),
			isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R2, -4),
			isa.Call(helpers.MapLookupElem),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}); err == nil {
		t.Error("map_lookup_elem on prog_array accepted")
	}
	// Tail call with a non-prog-array map is rejected.
	if _, err := k.LoadProgram(&isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R2, arrFD),
			isa.Mov64Imm(isa.R3, 0),
			isa.Call(helpers.TailCall),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}); err == nil {
		t.Error("tail_call with array map accepted")
	}
}

func TestRingbufReserveSubmit(t *testing.T) {
	k := newKernel(t, bugs.None(), true)
	rbFD, err := k.CreateMap(maps.Spec{Type: maps.RingBuf, MaxEntries: 64, Name: "rb"})
	if err != nil {
		t.Fatal(err)
	}
	// Reserve 16 bytes, null check, write into the record, submit.
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R1, rbFD),
			isa.Mov64Imm(isa.R2, 16),
			isa.Mov64Imm(isa.R3, 0),
			isa.Call(helpers.RingbufReserve),
			isa.JumpImm(isa.JNE, isa.R0, 0, 2),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
			isa.Mov64Reg(isa.R6, isa.R0),
			isa.StoreImm(isa.SizeDW, isa.R6, 0, 0x11),
			isa.StoreImm(isa.SizeDW, isa.R6, 8, 0x22),
			isa.Mov64Reg(isa.R1, isa.R6),
			isa.Mov64Imm(isa.R2, 0),
			isa.Call(helpers.RingbufSubmit),
			isa.Mov64Imm(isa.R0, 1),
			isa.Exit(),
		},
	})
	out := k.Run(lp)
	if out.Err != nil || out.R0 != 1 {
		t.Fatalf("run: R0=%d err=%v", out.R0, out.Err)
	}
}

func TestRingbufReserveLeakRejected(t *testing.T) {
	k := newKernel(t, bugs.None(), false)
	rbFD, _ := k.CreateMap(maps.Spec{Type: maps.RingBuf, MaxEntries: 64, Name: "rb"})
	// Reserve without submit: unreleased reference.
	if _, err := k.LoadProgram(&isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R1, rbFD),
			isa.Mov64Imm(isa.R2, 16),
			isa.Mov64Imm(isa.R3, 0),
			isa.Call(helpers.RingbufReserve),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}); err == nil {
		t.Error("ringbuf reservation leak accepted")
	}
}

func TestRingbufRecordOOBCaught(t *testing.T) {
	// Writing past the 16-byte record is outside the reservation: the
	// verifier rejects it statically via the mem-size bound.
	k := newKernel(t, bugs.None(), true)
	rbFD, _ := k.CreateMap(maps.Spec{Type: maps.RingBuf, MaxEntries: 64, Name: "rb"})
	if _, err := k.LoadProgram(&isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.LoadMapFD(isa.R1, rbFD),
			isa.Mov64Imm(isa.R2, 16),
			isa.Mov64Imm(isa.R3, 0),
			isa.Call(helpers.RingbufReserve),
			isa.JumpImm(isa.JNE, isa.R0, 0, 2),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
			isa.StoreImm(isa.SizeDW, isa.R0, 12, 1), // 12+8 > 16
			isa.Mov64Reg(isa.R1, isa.R0),
			isa.Mov64Imm(isa.R2, 0),
			isa.Call(helpers.RingbufSubmit),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		},
	}); err == nil {
		t.Error("record overflow accepted")
	}
}

func TestSkbLoadBytes(t *testing.T) {
	k := newKernel(t, bugs.None(), true)
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.Mov64Imm(isa.R2, 4), // packet offset
			isa.Mov64Reg(isa.R3, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R3, -8),
			isa.Mov64Imm(isa.R4, 8),
			isa.Call(helpers.SkbLoadBytes),
			isa.LoadMem(isa.SizeB, isa.R0, isa.R10, -8),
			isa.Exit(),
		},
	})
	out := k.Run(lp)
	if out.Err != nil {
		t.Fatalf("run: %v", out.Err)
	}
	// Packet bytes are byte(i) for socket filters; offset 4 -> 4.
	if out.R0 != 4 {
		t.Errorf("R0 = %d, want 4", out.R0)
	}
}

func TestLRUHashEviction(t *testing.T) {
	k := newKernel(t, bugs.None(), false)
	fd, err := k.CreateMap(maps.Spec{Type: maps.LRUHash, KeySize: 4, ValueSize: 8, MaxEntries: 2, Name: "lru"})
	if err != nil {
		t.Fatal(err)
	}
	m := k.MapByFD(fd)
	for i := byte(0); i < 4; i++ {
		if err := m.Update([]byte{i, 0, 0, 0}, make([]byte, 8), maps.UpdateAny); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if m.Entries() != 2 {
		t.Errorf("entries = %d, want 2 after eviction", m.Entries())
	}
	if m.LookupAddr([]byte{0, 0, 0, 0}) != 0 {
		t.Error("oldest entry not evicted")
	}
	if m.LookupAddr([]byte{3, 0, 0, 0}) == 0 {
		t.Error("newest entry missing")
	}
}

func TestRunAttachPath(t *testing.T) {
	k := newKernel(t, bugs.None(), true)
	// Attached to a known tracepoint: the handler runs once per fire.
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeKprobe, GPLCompatible: true, AttachTo: "sched_switch",
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 3), isa.Exit()},
	})
	out := k.Run(lp)
	if out.Err != nil || out.R0 != 3 {
		t.Fatalf("attached run: R0=%d err=%v", out.R0, out.Err)
	}
	if k.M.Trace.FireCount("sched_switch") == 0 {
		t.Error("tracepoint never fired")
	}
	// Unknown attach target falls back to a direct run.
	lp2 := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeKprobe, GPLCompatible: true, AttachTo: "kprobe:generic",
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 4), isa.Exit()},
	})
	if out := k.Run(lp2); out.Err != nil || out.R0 != 4 {
		t.Fatalf("kprobe run: R0=%d err=%v", out.R0, out.Err)
	}
}

func TestDumpMapCleanAndArray(t *testing.T) {
	k := newKernel(t, bugs.None(), false)
	hfd, _ := k.CreateMap(maps.Spec{Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4, Name: "h"})
	m := k.MapByFD(hfd)
	m.Update([]byte{1, 0, 0, 0}, make([]byte, 8), maps.UpdateAny)
	m.Update([]byte{2, 0, 0, 0}, make([]byte, 8), maps.UpdateAny)
	n, err := k.DumpMap(hfd)
	if err != nil || n != 2 {
		t.Errorf("hash dump: n=%d err=%v", n, err)
	}
	afd, _ := k.CreateMap(maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 3, Name: "a"})
	n, err = k.DumpMap(afd)
	if err != nil || n != 3 {
		t.Errorf("array dump: n=%d err=%v", n, err)
	}
	if _, err := k.DumpMap(12345); err == nil {
		t.Error("bad fd dump succeeded")
	}
}

func TestDispatcherWithoutBug7(t *testing.T) {
	k := newKernel(t, bugs.None(), false)
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeXDP, GPLCompatible: true,
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 2), isa.Exit()},
	})
	for i := 0; i < 10; i++ {
		k.UpdateDispatcher(lp)
		out := k.RunDispatcher()
		if out.Err != nil {
			t.Fatalf("clean dispatcher faulted at %d: %v", i, out.Err)
		}
	}
	// Empty dispatcher is a no-op.
	k2 := newKernel(t, bugs.None(), false)
	if out := k2.RunDispatcher(); out.Err != nil {
		t.Errorf("empty dispatcher: %v", out.Err)
	}
}

func TestOffloadedXDPWithoutBug11(t *testing.T) {
	k := newKernel(t, bugs.None(), false)
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeXDP, GPLCompatible: true,
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 2), isa.Exit()},
	})
	lp.Offloaded = true
	if out := k.Run(lp); out.Err != nil {
		t.Errorf("fixed kernel flagged an offloaded program: %v", out.Err)
	}
}

func TestSetProgArraySlotValidation(t *testing.T) {
	k := newKernel(t, bugs.None(), false)
	arrFD, _ := k.CreateMap(maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 4, MaxEntries: 1, Name: "a"})
	paFD, _ := k.CreateMap(maps.Spec{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1, Name: "jt"})
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 0), isa.Exit()},
	})
	if err := k.SetProgArraySlot(arrFD, 0, lp.FD); err == nil {
		t.Error("array map accepted as prog array")
	}
	if err := k.SetProgArraySlot(paFD, 0, 99999); err == nil {
		t.Error("bad prog fd accepted")
	}
	if err := k.SetProgArraySlot(paFD, 0, lp.FD); err != nil {
		t.Errorf("valid slot set failed: %v", err)
	}
}

// TestOracleClaimTableHandoff: an oracle kernel verifies every program
// into its one claim table. The last program loaded holds it; the next
// load takes it back, so the earlier program runs without an oracle
// replay. Knob-removal triage re-verifies without touching the holder's
// claims, whichever program it triages.
func TestOracleClaimTableHandoff(t *testing.T) {
	k := New(Config{Version: BPFNext, Sanitize: true, Oracle: true})
	sock := func(insns ...isa.Instruction) *isa.Program {
		return &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: insns}
	}
	a := sock(
		isa.Mov64Imm(isa.R6, 1),
		isa.Mov64Imm(isa.R7, 2),
		isa.Alu64Reg(isa.ALUAdd, isa.R6, isa.R7),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.Mov64Reg(isa.R0, isa.R6),
		isa.Exit(),
	)
	b := sock(
		isa.Mov64Imm(isa.R3, 5),
		isa.Alu64Imm(isa.ALUAdd, isa.R3, 2),
		isa.Mov64Reg(isa.R0, isa.R3),
		isa.Exit(),
	)
	checks := func(lp *LoadedProg) int {
		t.Helper()
		before := k.OracleChecks
		if out := k.Run(lp); out.Err != nil {
			t.Fatalf("run: %v", out.Err)
		}
		return k.OracleChecks - before
	}

	table := k.claims
	lpA := mustLoad(t, k, a)
	if lpA.Res.States != table {
		t.Fatal("A's claims are not in the kernel's table")
	}
	lpB := mustLoad(t, k, b)
	if lpB.Res.States != table || table.NumInsns() != len(b.Insns) {
		t.Fatalf("B's Res.States = %p covering %d insns, want the kernel's table %p covering %d",
			lpB.Res.States, lpB.Res.States.NumInsns(), table, len(b.Insns))
	}
	if lpA.Res.States != nil {
		t.Error("A kept its claims after B was loaded")
	}
	if n := checks(lpA); n != 0 {
		t.Errorf("Run(A) checked %d claims after B took the table, want 0", n)
	}
	nB := checks(lpB)
	if nB == 0 {
		t.Fatal("Run(B) checked no claims")
	}

	lpB2 := mustLoad(t, k, b)
	if lpB2.Res.States != table || k.claims != table {
		t.Error("loading B again did not reuse the kernel's table")
	}
	if lpB.Res.States != nil {
		t.Error("the first B kept its claims after B was loaded again")
	}

	held := make([]verifier.RegClaim, 0, len(b.Insns)*isa.NumReg)
	for i := 0; i < len(b.Insns); i++ {
		for r := 0; r < isa.NumReg; r++ {
			held = append(held, table.Claim(i, r))
		}
	}
	anomaly := &Anomaly{Kind: "kasan:slab-out-of-bounds", Indicator: Indicator1,
		Err: &kmem.Report{Kind: kmem.ReportOOB, Addr: 0x1000, Size: 8}}
	k.Triage(anomaly, b)
	k.Triage(anomaly, a)
	if lpB2.Res.States != table || table.NumInsns() != len(b.Insns) {
		t.Fatalf("after Triage the table covers %d insns, want B's %d", table.NumInsns(), len(b.Insns))
	}
	for i := 0; i < len(b.Insns); i++ {
		for r := 0; r < isa.NumReg; r++ {
			if got, want := table.Claim(i, r), held[i*isa.NumReg+r]; got != want {
				t.Errorf("after Triage, insn %d R%d claim = %v, want %v", i, r, got, want)
			}
		}
	}
	if n := checks(lpB2); n != nB {
		t.Errorf("Run(B) after Triage checked %d claims, want %d", n, nB)
	}
}

// TestProbeReadKernelOddTail: bpf_probe_read_kernel of 13 bytes copies
// 13 bytes, 8 and then a 5-byte tail, and leaves the next 3 alone. The
// program returns 0 when the stack holds the first 13 bytes of pt_regs
// followed by the zeros it stored.
func TestProbeReadKernelOddTail(t *testing.T) {
	k := newKernel(t, bugs.None(), true)
	lp := mustLoad(t, k, &isa.Program{
		Type: isa.ProgTypeKprobe, GPLCompatible: true,
		Insns: []isa.Instruction{
			isa.Mov64Reg(isa.R6, isa.R1),
			isa.StoreImm(isa.SizeDW, isa.R10, -16, 0),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Mov64Reg(isa.R1, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R1, -16),
			isa.Mov64Imm(isa.R2, 13),
			isa.Mov64Reg(isa.R3, isa.R6),
			isa.Call(helpers.ProbeReadKernel),
			isa.Mov64Reg(isa.R7, isa.R0), // the helper's return, 0
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -16),
			isa.LoadMem(isa.SizeDW, isa.R1, isa.R6, 0),
			isa.Alu64Reg(isa.ALUXor, isa.R0, isa.R1),
			isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -8),
			isa.LoadMem(isa.SizeDW, isa.R2, isa.R6, 8),
			isa.Alu64Imm(isa.ALULsh, isa.R2, 24), // keep its low 5 bytes
			isa.Alu64Imm(isa.ALURsh, isa.R2, 24),
			isa.Alu64Reg(isa.ALUXor, isa.R1, isa.R2),
			isa.Alu64Reg(isa.ALUOr, isa.R0, isa.R1),
			isa.Alu64Reg(isa.ALUOr, isa.R0, isa.R7),
			isa.Exit(),
		},
	})
	out := k.Run(lp)
	if out.Err != nil || out.R0 != 0 {
		t.Fatalf("run: R0=%#x err=%v; want 0, nil", out.R0, out.Err)
	}
}

// TestParseVersion: every version's name parses back to it, and an
// unknown name (a real release BVF does not model, a near miss, a
// different spelling) is an error that lists the valid names.
func TestParseVersion(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Version
		ok   bool
	}{
		{"v5.15", V515, true},
		{"v6.1", V61, true},
		{"bpf-next", BPFNext, true},
		{"v5.10", 0, false},
		{"5.15", 0, false},
		{"BPF-NEXT", 0, false},
		{"", 0, false},
	} {
		got, err := ParseVersion(c.in)
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "v5.15, v6.1, bpf-next") {
				t.Errorf("ParseVersion(%q) = %v, %v; want an error listing the valid names", c.in, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseVersion(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, v := range AllVersions {
		if got, err := ParseVersion(v.String()); err != nil || got != v {
			t.Errorf("ParseVersion(%v.String()) = %v, %v", v, got, err)
		}
	}
}
