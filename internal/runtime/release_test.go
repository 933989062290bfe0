package runtime

import (
	"errors"
	"fmt"
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/bugs"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/maps"
	"repro/internal/trace"
)

// releaseCase is one program TestReleasedExecMatchesFresh runs, with the
// hook its execution gets (nil for none) and the R0 of a clean run.
type releaseCase struct {
	name string
	prog *isa.Program
	hook InsnHook
	r0   uint64
}

// releaseCases builds the programs on m: nested pseudo-calls three frames
// deep, a subprogram frame read after it was freed, a tail call, a helper
// firing a tracepoint whose handler runs a program, reads of registers
// the program never wrote, a jump into an LD_IMM64's second half, and a
// run a hook aborts.
func releaseCases(m *Machine) []releaseCase {
	kprobe := func(insns ...isa.Instruction) *isa.Program {
		return &isa.Program{Type: isa.ProgTypeKprobe, GPLCompatible: true, Insns: insns}
	}
	jt := m.MapByFD(3)
	printk := kprobe(
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0x41),
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
		isa.Mov64Imm(isa.R2, 8),
		isa.Call(helpers.TracePrintk),
		isa.Exit(),
	)
	return []releaseCase{
		{name: "nested calls", prog: kprobe(
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 1),
			isa.CallPseudo(3),
			isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -8),
			isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R1),
			isa.Exit(),
			// frame 2
			isa.StoreImm(isa.SizeDW, isa.R10, -16, 20),
			isa.CallPseudo(3),
			isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -16),
			isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R1),
			isa.Exit(),
			// frame 3: its stack starts zeroed, whatever it reuses
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -24),
			isa.Alu64Imm(isa.ALUAdd, isa.R0, 300),
			isa.StoreMem(isa.SizeDW, isa.R10, isa.R0, -24),
			isa.Exit(),
		), r0: 321},
		{name: "stale frame", prog: kprobe(
			isa.CallPseudo(6),
			isa.Mov64Reg(isa.R6, isa.R0),
			isa.CallPseudo(4), // reuses the freed frame's bytes
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R6, -8),
			isa.Mov64Reg(isa.R1, isa.R6),
			isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
			isa.Call(helpers.AsanLoadID(8)), // use-after-free
			// subprogram: returns its frame pointer
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0x55),
			isa.Mov64Reg(isa.R0, isa.R10),
			isa.Exit(),
		)},
		{name: "tail call", prog: &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 9),
			isa.LoadImm64(isa.R2, jt.KernAddr),
			isa.Mov64Imm(isa.R3, 0),
			isa.Call(helpers.TailCall),
			isa.Mov64Imm(isa.R0, 1),
			isa.Exit(),
		}}, r0: 77},
		{name: "tracepoint", prog: printk},
		{name: "unwritten registers", prog: kprobe(
			isa.Mov64Reg(isa.R0, isa.R3),
			isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R6),
			isa.Alu64Reg(isa.ALUAdd, isa.R0, isa.R9),
			isa.StoreImm(isa.SizeDW, isa.R10, 600, 1), // past the frame: silent
			isa.Exit(),
		)},
		{name: "jump into ld_imm64", prog: kprobe(
			isa.JumpA(1),
			isa.LoadImm64(isa.R0, 5),
			isa.Exit(),
		)},
		{name: "hook", prog: kprobe(
			isa.Mov64Imm(isa.R0, 1),
			isa.Mov64Imm(isa.R0, 2),
			isa.Exit(),
		), hook: func(pc int, regs *[isa.NumReg]uint64) error {
			if pc == 1 {
				return errors.New("hook stop")
			}
			return nil
		}},
	}
}

// TestReleasedExecMatchesFresh: programs run on executions that are
// released and reused give the outcomes, allocation count and silent
// corruptions they give on fresh ones, including a tail call and a
// tracepoint handler nested inside a run, each released in turn.
func TestReleasedExecMatchesFresh(t *testing.T) {
	type result struct {
		outs           []string
		allocs, silent int
		execs          int // distinct executions made
	}
	run := func(release bool) result {
		m := NewMachine(bugs.None())
		fd, err := m.CreateMap(maps.Spec{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1, Name: "jt"})
		if err != nil || fd != 3 {
			t.Fatalf("CreateMap = %d, %v", fd, err)
		}
		target := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8), // 0: a fresh stack
			isa.Alu64Imm(isa.ALUAdd, isa.R0, 77),
			isa.Exit(),
		}}
		m.ResolveProg = func(int32) *isa.Program { return target }
		if err := m.MapByFD(fd).SetProg(0, 100); err != nil {
			t.Fatal(err)
		}
		seen := map[*Exec]bool{}
		exec := func(p *isa.Program, hook InsnHook) *ExecOutcome {
			x := NewExec(m, p)
			seen[x] = true
			if hook != nil {
				x.SetInsnHook(hook)
			}
			out := x.Run()
			if release {
				x.Release()
			}
			return out
		}
		cases := releaseCases(m)
		printk := cases[3].prog
		if err := m.Trace.Attach(trace.TracePrintk, func(int) error { return exec(printk, nil).Err }); err != nil {
			t.Fatal(err)
		}
		var res result
		for round := 0; round < 3; round++ {
			for _, c := range cases {
				out := exec(c.prog, c.hook)
				if out.Err == nil && out.R0 != c.r0 {
					t.Errorf("%s (release %v): r0 = %d, want %d", c.name, release, out.R0, c.r0)
				}
				res.outs = append(res.outs, fmt.Sprintf("%s: r0=%#x steps=%d err=%v", c.name, out.R0, out.Steps, out.Err))
			}
		}
		res.allocs, res.silent, res.execs = m.Dom.Allocations(), m.Dom.SilentCorruptions, len(seen)
		return res
	}
	fresh, reused := run(false), run(true)
	if !reflect.DeepEqual(fresh.outs, reused.outs) {
		for i := range fresh.outs {
			if fresh.outs[i] != reused.outs[i] {
				t.Errorf("run %d: fresh %s, reused %s", i, fresh.outs[i], reused.outs[i])
			}
		}
	}
	if fresh.allocs != reused.allocs || fresh.silent != reused.silent {
		t.Errorf("fresh: %d allocations, %d silent corruptions; reused: %d, %d",
			fresh.allocs, fresh.silent, reused.allocs, reused.silent)
	}
	if fresh.silent == 0 {
		t.Error("no run corrupted silently; the cases lost their raw out-of-bounds accesses")
	}
	// The printk recursion nests trace.MaxDepth executions inside the
	// outer one; every other run needs at most two at once.
	if max := trace.NewManager().MaxDepth + 2; reused.execs > max {
		t.Errorf("released executions were not reused: %d made (fresh %d), want at most %d", reused.execs, fresh.execs, max)
	}
}

// TestReleaseTwice: a second Release of one execution is a no-op, so two
// later executions are distinct.
func TestReleaseTwice(t *testing.T) {
	m := NewMachine(bugs.None())
	p := &isa.Program{Type: isa.ProgTypeKprobe, Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 1), isa.Exit()}}
	x := NewExec(m, p)
	x.Run()
	x.Release()
	x.Release()
	a, b := NewExec(m, p), NewExec(m, p)
	if a == b {
		t.Fatal("a twice-released execution was handed out twice")
	}
	if a != x && b != x {
		t.Error("the released execution was not reused")
	}
}

// TestReadMemGrowsAsItReads: a huge size read from a small object fails
// at the object's end, as the same reads always did, without first
// allocating the size asked for.
func TestReadMemGrowsAsItReads(t *testing.T) {
	m := NewMachine(bugs.None())
	x := NewExec(m, &isa.Program{Type: isa.ProgTypeTracepoint, Insns: []isa.Instruction{isa.Exit()}})
	x.buildCtx()
	x.henv.x = x
	base := x.ctxAlloc.BaseAddr
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	data, err := x.henv.ReadMem(base, 1<<28)
	goruntime.ReadMemStats(&after)
	want := &kmem.Report{Kind: kmem.ReportOOB, Addr: base + 64, Size: 8, Tag: "tp_ctx"}
	var rep *kmem.Report
	if data != nil || !errors.As(err, &rep) || *rep != *want {
		t.Fatalf("ReadMem = %d bytes, %v; want %v", len(data), err, want)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("ReadMem allocated %d bytes for a read that fails after 64", n)
	}
	// A read that succeeds returns every byte.
	copy(x.ctxAlloc.Data, "0123456789abcdefghij")
	if data, err := x.henv.ReadMem(base+3, 12); err != nil || string(data) != "3456789abcde" {
		t.Errorf("ReadMem(12) = %q, %v", data, err)
	}
}
