// Cache-equivalence fuzzing lives in an external test package: the cache
// store under test (internal/vcache) imports verifier, so an in-package
// test would be an import cycle.
package verifier_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
	"repro/internal/vcache"
	"repro/internal/verifier"
)

// newEquivKernel builds a kernel with a small map pool so fuzzed programs
// can exercise the map-rebinding path of cache hits. The first CreateMap
// gets FD 100 — the seed corpus hardcodes it.
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
		case !reflect.DeepEqual(ra.ProbeMem, rb.ProbeMem):
			return fmt.Sprintf("ProbeMem %v vs %v", ra.ProbeMem, rb.ProbeMem)
		case ra.R0Bounds != rb.R0Bounds:
			return fmt.Sprintf("R0Bounds %+v vs %+v", ra.R0Bounds, rb.R0Bounds)
		case !reflect.DeepEqual(ra.Prog.Insns, rb.Prog.Insns):
			return "fixed-up program instructions differ"
		}
		if len(ra.UsedMaps) != len(rb.UsedMaps) {
			return fmt.Sprintf("UsedMaps %d vs %d", len(ra.UsedMaps), len(rb.UsedMaps))
		}
		for i := range ra.UsedMaps {
			if ra.UsedMaps[i] != rb.UsedMaps[i] {
				return fmt.Sprintf("UsedMaps[%d]: %p vs %p", i, ra.UsedMaps[i], rb.UsedMaps[i])
			}
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
	// Map access: the cache hit must rebind FDs and re-run fixup.
	f.Add(uint8(1), encodeInsns([]isa.Instruction{
		isa.LoadMapFD(isa.R9, 100),
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
