package verifier

import (
	"os"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/coverage"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/maps"
)

// benchKernel builds the verification environment without *testing.T
// plumbing so benchmarks can share it with the allocation-regression
// guard.
type benchKernel struct {
	reg  *helpers.Registry
	btf  *btf.Registry
	maps map[int32]*maps.Map
}

func newBenchKernel() *benchKernel {
	k := &benchKernel{
		reg:  helpers.NewRegistry(),
		btf:  btf.NewKernelRegistry(),
		maps: make(map[int32]*maps.Map),
	}
	dom := kmem.NewDomain()
	m, err := maps.New(dom, 3, maps.Spec{
		Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 4, Name: "arr64",
	})
	if err != nil {
		panic(err)
	}
	k.maps[3] = m
	return k
}

func (k *benchKernel) config(cov *coverage.Map) *Config {
	return &Config{
		Bugs:    bugs.None(),
		Helpers: k.reg,
		BTF:     k.btf,
		MapByFD: func(fd int32) *maps.Map { return k.maps[fd] },
		Cov:     cov,
	}
}

// hotPathProgram is the steady-state workload: a map lookup with null
// check followed by a cascade of conditional branches over the loaded
// scalar. Every verification forks the worklist repeatedly, records
// prune snapshots at the joins, and prunes the redundant paths — the
// exact shape that dominates campaign verification time.
func hotPathProgram() *isa.Program {
	insns := []isa.Instruction{
		isa.LoadMapFD(isa.R9, 3),
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -4),
		isa.Mov64Reg(isa.R1, isa.R9),
		isa.Call(helpers.MapLookupElem),
		isa.JumpImm(isa.JEQ, isa.R0, 0, 14), // null -> exit
		isa.LoadMem(isa.SizeW, isa.R7, isa.R0, 0),
		isa.Mov64Imm(isa.R8, 0),
	}
	// Branch cascade: each conditional forks, paths re-join at the next
	// jump, and pruning collapses the state explosion.
	for _, bound := range []int32{64, 48, 32, 16, 8} {
		insns = append(insns,
			isa.JumpImm(isa.JGT, isa.R7, bound, 1),
			isa.Alu64Imm(isa.ALUAdd, isa.R8, 1),
		)
	}
	insns = append(insns,
		isa.StoreMem(isa.SizeW, isa.R0, isa.R8, 4),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	return &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: insns}
}

// rejectProgram explores several branches before dying on an
// uninitialized-register read, exercising the rejection path (lazy error
// rendering plus the log-free reject fast path).
func rejectProgram() *isa.Program {
	insns := []isa.Instruction{
		isa.Mov64Imm(isa.R7, 3),
		isa.Mov64Imm(isa.R8, 0),
	}
	for i := 0; i < 4; i++ {
		insns = append(insns,
			isa.JumpImm(isa.JSGT, isa.R7, int32(i), 1),
			isa.Alu64Imm(isa.ALUAdd, isa.R8, 1),
		)
	}
	insns = append(insns,
		isa.Mov64Reg(isa.R0, isa.R5), // R5 never initialized -> reject
		isa.Exit(),
	)
	return &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: insns}
}

func BenchmarkVerifyHotPath(b *testing.B) {
	k := newBenchKernel()
	cov := coverage.NewMap()
	cfg := k.config(cov)
	prog := hotPathProgram()
	if _, err := Verify(prog, cfg); err != nil {
		b.Fatalf("hot-path program rejected: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVerifyHotPathAllocBudget is the allocation regression guard: the
// pooled hot path measures ~68 allocs per verification (down from 162
// before state pooling, precomputed coverage sites and lazy rejection
// errors). The budget leaves headroom for runtime/toolchain jitter while
// still catching any change that reintroduces per-path allocation.
func TestVerifyHotPathAllocBudget(t *testing.T) {
	k := newBenchKernel()
	cov := coverage.NewMap()
	cfg := k.config(cov)
	prog := hotPathProgram()
	if _, err := Verify(prog, cfg); err != nil {
		t.Fatalf("hot-path program rejected: %v", err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := Verify(prog, cfg); err != nil {
			t.Error(err)
		}
	})
	const budget = 100
	if avg > budget {
		t.Errorf("hot-path verification allocates %.1f objects/run, budget %d", avg, budget)
	}
	t.Logf("hot-path verification: %.1f allocs/run (budget %d)", avg, budget)

	// Oracle leg: recording claims into a warm caller-owned table, as an
	// oracle kernel does, must not pay for a table per verification.
	cfg.RecordStates = true
	cfg.States = new(StateTable)
	table := uint64(len(prog.Insns)*isa.NumReg) * uint64(unsafe.Sizeof(RegClaim{}))
	perRun := medianBytesPerRun(101, func() {
		if _, err := Verify(prog, cfg); err != nil {
			t.Error(err)
		}
	})
	if perRun >= table/4 {
		t.Errorf("recording into a warm table allocates %d B/run, want under a quarter of one table (%d B)", perRun, table)
	}
	t.Logf("recording into a warm table: %d B/run (one table is %d B)", perRun, table)
}

// medianBytesPerRun returns the median heap bytes one call of f allocates
// over runs calls, after a warm-up call. The median rather than the mean:
// under the race detector sync.Pool drops a quarter of what is put back,
// so some calls rebuild the verifier's pooled env.
func medianBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	perRun := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range perRun {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		perRun[i] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(perRun, func(i, j int) bool { return perRun[i] < perRun[j] })
	return perRun[runs/2]
}

// BenchmarkVerifyRecordStates is the oracle's verification: the hot-path
// program recording its claims into a warm caller-owned table, as a
// kernel with Config.Oracle does.
func BenchmarkVerifyRecordStates(b *testing.B) {
	k := newBenchKernel()
	cfg := k.config(coverage.NewMap())
	cfg.RecordStates = true
	cfg.States = new(StateTable)
	prog := hotPathProgram()
	if _, err := Verify(prog, cfg); err != nil {
		b.Fatalf("hot-path program rejected: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyReject(b *testing.B) {
	k := newBenchKernel()
	cov := coverage.NewMap()
	cfg := k.config(cov)
	prog := rejectProgram()
	if _, err := Verify(prog, cfg); err == nil {
		b.Fatal("reject program was accepted")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(prog, cfg); err == nil {
			b.Fatal("accepted")
		}
	}
}

// pruneSaturated assembles testdata/prune_saturated.s, a fuzzed
// tracepoint program whose prune points all keep maxStatesPerInsn states,
// and returns it with the configuration that accepts it: Bug #1 armed,
// and map fd 6 the hash map it looks up, the fd a campaign's resource
// pool gives that map.
func pruneSaturated(tb testing.TB) (*isa.Program, *Config) {
	tb.Helper()
	src, err := os.ReadFile("testdata/prune_saturated.s")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	prog.Type, prog.GPLCompatible = isa.ProgTypeTracepoint, true
	k := newTestKernel(tb)
	k.addMap(tb, 6, maps.Spec{Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8, Name: "hash8"})
	return prog, k.config(bugs.Of(bugs.Bug1NullnessProp))
}

// BenchmarkVerifyPruneSaturated verifies the program family that makes a
// fuzzing campaign at seed 9000034 slow: 54 instructions that simulate
// about 28k. It reports both, so a change in work shows apart from a
// change in speed.
func BenchmarkVerifyPruneSaturated(b *testing.B) {
	prog, cfg := pruneSaturated(b)
	var res *Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Verify(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.InsnProcessed), "insns/op")
	b.ReportMetric(float64(res.TotalStates), "states/op")
}

// TestPruneSaturatedWork pins the work the prune-saturated program costs:
// every verification of it simulates the same instructions over the same
// states, so a change to pruning or to the state lists shows here first.
func TestPruneSaturatedWork(t *testing.T) {
	prog, cfg := pruneSaturated(t)
	res, err := Verify(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InsnProcessed != 27838 || res.TotalStates != 4169 {
		t.Errorf("InsnProcessed %d, TotalStates %d; want 27838, 4169", res.InsnProcessed, res.TotalStates)
	}
}
