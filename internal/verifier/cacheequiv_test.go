// Cache-equivalence fuzzing, and the cache tests and benchmark that need
// a store, live in an external test package: the cache store under test
// (internal/vcache) imports verifier, so an in-package test would be an
// import cycle.
package verifier_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
	"repro/internal/vcache"
	"repro/internal/verifier"
)

// newEquivKernel builds a kernel with a small map pool so fuzzed programs
// can exercise the map path of cache hits: FD 3 is the array, FD 4 the
// hash map.
func newEquivKernel(tb testing.TB) *kernel.Kernel {
	tb.Helper()
	k := kernel.New(kernel.Config{Version: kernel.BPFNext})
	for _, spec := range []maps.Spec{
		{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 4, Name: "arr64"},
		{Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8, Name: "hash8"},
	} {
		if _, err := k.CreateMap(spec); err != nil {
			tb.Fatal(err)
		}
	}
	return k
}

func encodeInsns(insns []isa.Instruction) []byte {
	var buf []byte
	for _, ins := range insns {
		buf = ins.Encode(buf)
	}
	return buf
}

// verdict is everything observable from one Verify call.
type verdict struct {
	res *verifier.Result
	err error
	cov *coverage.Map
}

func runVerify(k *kernel.Kernel, prog *isa.Program, cache verifier.Cache) verdict {
	cfg := k.VerifierConfig()
	cfg.Cov = coverage.NewMap()
	cfg.Timeout = 500 * time.Millisecond
	cfg.Cache = cache
	res, err := verifier.Verify(prog, cfg)
	return verdict{res: res, err: err, cov: cfg.Cov}
}

// diffVerdicts returns a description of the first observable difference
// between two Verify outcomes, or "" when they are identical.
func diffVerdicts(a, b verdict) string {
	if (a.err == nil) != (b.err == nil) {
		return fmt.Sprintf("error presence: %v vs %v", a.err, b.err)
	}
	if a.err != nil {
		var ea, eb *verifier.Error
		if errors.As(a.err, &ea) != errors.As(b.err, &eb) {
			return fmt.Sprintf("error type: %v vs %v", a.err, b.err)
		}
		if ea != nil {
			if ea.Insn != eb.Insn || ea.Errno != eb.Errno || ea.Message() != eb.Message() {
				return fmt.Sprintf("rejection: insn %d errno %d %q vs insn %d errno %d %q",
					ea.Insn, ea.Errno, ea.Message(), eb.Insn, eb.Errno, eb.Message())
			}
		} else if a.err.Error() != b.err.Error() {
			return fmt.Sprintf("error: %v vs %v", a.err, b.err)
		}
	}
	if (a.res == nil) != (b.res == nil) {
		return fmt.Sprintf("result presence: %v vs %v", a.res != nil, b.res != nil)
	}
	if a.res != nil {
		ra, rb := a.res, b.res
		switch {
		case ra.InsnProcessed != rb.InsnProcessed:
			return fmt.Sprintf("InsnProcessed %d vs %d", ra.InsnProcessed, rb.InsnProcessed)
		case ra.PeakStates != rb.PeakStates:
			return fmt.Sprintf("PeakStates %d vs %d", ra.PeakStates, rb.PeakStates)
		case ra.TotalStates != rb.TotalStates:
			return fmt.Sprintf("TotalStates %d vs %d", ra.TotalStates, rb.TotalStates)
		case !reflect.DeepEqual(ra.RangeChecks, rb.RangeChecks):
			return fmt.Sprintf("RangeChecks %v vs %v", ra.RangeChecks, rb.RangeChecks)
		case ra.R0Bounds != rb.R0Bounds:
			return fmt.Sprintf("R0Bounds %+v vs %+v", ra.R0Bounds, rb.R0Bounds)
		case !reflect.DeepEqual(ra.Prog.Insns, rb.Prog.Insns):
			return "fixed-up program instructions differ"
		}
	}
	ca, erra := a.cov.MarshalBinary()
	cb, errb := b.cov.MarshalBinary()
	if erra != nil || errb != nil {
		return fmt.Sprintf("coverage marshal: %v / %v", erra, errb)
	}
	if !bytes.Equal(ca, cb) {
		return "coverage differs"
	}
	return ""
}

// FuzzVerifyCacheEquivalence is the verdict cache's safety net: for
// arbitrary decodable programs, Verify with a cold cache (miss + insert),
// Verify with a warm cache (hit, materialized from the stored verdict),
// and Verify with no cache at all must be observably identical — same
// accept/reject, same rejection insn/errno/message, same Result counters
// and rewrite artifacts, same coverage. The warm-vs-scratch leg is the
// one that catches materialize() bugs; cold-vs-scratch catches a miss
// path that diverges from plain verification.
func FuzzVerifyCacheEquivalence(f *testing.F) {
	f.Add(uint8(1), encodeInsns([]isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}))
	// Straight-line code ahead of a branch.
	f.Add(uint8(1), encodeInsns([]isa.Instruction{
		isa.Mov64Imm(isa.R1, 7),
		isa.Mov64Imm(isa.R2, 9),
		isa.Alu64Imm(isa.ALUAdd, isa.R1, 3),
		isa.Alu64Imm(isa.ALUMul, isa.R2, 5),
		isa.Mov64Reg(isa.R0, isa.R1),
		isa.JumpImm(isa.JEQ, isa.R2, 0, 1),
		isa.Mov64Imm(isa.R0, 1),
		isa.Exit(),
	}))
	// Map access: the cache hit must resolve the FD again in its fixup.
	f.Add(uint8(1), encodeInsns([]isa.Instruction{
		isa.LoadMapFD(isa.R9, 3),
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -4),
		isa.Mov64Reg(isa.R1, isa.R9),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}))
	// Rejected: reading an uninitialized register.
	f.Add(uint8(0), encodeInsns([]isa.Instruction{
		isa.Exit(),
	}))

	k := newEquivKernel(f)
	f.Fuzz(func(t *testing.T, progType uint8, data []byte) {
		var insns []isa.Instruction
		for len(data) > 0 && len(insns) < isa.MaxInsns {
			ins, n, err := isa.Decode(data)
			if err != nil {
				break
			}
			insns = append(insns, ins)
			data = data[n:]
		}
		if len(insns) == 0 {
			t.Skip("no decodable instructions")
		}
		prog := &isa.Program{
			Type:          isa.AllProgramTypes[int(progType)%len(isa.AllProgramTypes)],
			GPLCompatible: progType%2 == 0,
			Insns:         insns,
		}

		scratch := runVerify(k, prog, nil)
		var te *verifier.TimeoutError
		if errors.As(scratch.err, &te) {
			t.Skip("timed out; wall-clock watchdog verdicts are not deterministic")
		}

		store := vcache.NewStore(0)
		cold := runVerify(k, prog, store) // miss: verifies, inserts
		warm := runVerify(k, prog, store) // hit: materializes the entry

		if d := diffVerdicts(scratch, cold); d != "" {
			t.Errorf("cold cache diverges from scratch: %s", d)
		}
		if d := diffVerdicts(scratch, warm); d != "" {
			t.Errorf("warm cache diverges from scratch: %s", d)
		}
		if cnt := store.CounterSnapshot(); cnt.Misses != 1 {
			t.Errorf("cold+warm runs recorded %d misses, want 1 (hits %d)", cnt.Misses, cnt.Hits)
		}
	})
}

// mapLookupProg looks up key 0 in newEquivKernel's array map (FD 3) and
// reads the value behind a null check: an accepted program whose cache
// hit must resolve a map FD again.
func mapLookupProg() *isa.Program {
	return &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.LoadMapFD(isa.R1, 3),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Call(helpers.MapLookupElem),
		isa.JumpImm(isa.JNE, isa.R0, 0, 1),
		isa.Exit(),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 8),
		isa.Exit(),
	}}
}

// TestCacheStaleMapFDVerifiesFromScratch: a stored verdict whose map FD
// no longer resolves (the program is looked up on a kernel without that
// map) is a miss. The program is verified again from scratch, and the
// outcome and the coverage equal a verification without the cache: no
// site of the stored verdict is replayed before the fixup that finds
// the FD stale.
func TestCacheStaleMapFDVerifiesFromScratch(t *testing.T) {
	prog := mapLookupProg()
	store := vcache.NewStore(0)
	stored := runVerify(newEquivKernel(t), prog, store)
	if stored.err != nil {
		t.Fatalf("not accepted on a kernel holding fd 3: %v", stored.err)
	}
	bare := kernel.New(kernel.Config{Version: kernel.BPFNext})
	scratch := runVerify(bare, prog, nil)
	if scratch.err == nil {
		t.Fatal("accepted on a kernel without fd 3")
	}
	if stored.cov.Count() <= scratch.cov.Count() {
		t.Fatalf("stored verdict covers %d sites, the rejection %d: a replay of stored sites would not show",
			stored.cov.Count(), scratch.cov.Count())
	}
	stale := runVerify(bare, prog, store)
	if d := diffVerdicts(scratch, stale); d != "" {
		t.Errorf("stale-FD hit diverges from scratch verification: %s", d)
	}
}

// BenchmarkVerifyCacheHit times one warm-cache hit: the lookup, the
// fixup that resolves the map FD again, and the coverage replay.
func BenchmarkVerifyCacheHit(b *testing.B) {
	k := newEquivKernel(b)
	prog := mapLookupProg()
	cfg := k.VerifierConfig()
	cfg.Cov = coverage.NewMap()
	cfg.Cache = vcache.NewStore(0)
	if _, err := verifier.Verify(prog, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verifier.Verify(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
