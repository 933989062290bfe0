package verifier

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/isa"
)

// encodeProgram flattens a program to the raw instruction stream the
// fuzzer mutates.
func encodeProgram(p *isa.Program) []byte {
	var buf []byte
	for _, ins := range p.Insns {
		buf = ins.Encode(buf)
	}
	return buf
}

// decodeInsns decodes the longest valid instruction prefix of a raw
// stream, capped at isa.MaxInsns.
func decodeInsns(data []byte) []isa.Instruction {
	var insns []isa.Instruction
	for len(data) > 0 && len(insns) < isa.MaxInsns {
		ins, n, err := isa.Decode(data)
		if err != nil {
			break
		}
		insns = append(insns, ins)
		data = data[n:]
	}
	return insns
}

// FuzzVerifyNoPanic feeds mutated instruction streams straight into
// Verify. The verifier may accept or reject anything, but it must never
// panic, hang, or index out of bounds — campaign shards rely on that to
// survive arbitrary generator/mutator output. Seeds cover the accept
// path, the reject path, and a wide-immediate (16-byte) instruction so
// the mutator learns both encodings.
func FuzzVerifyNoPanic(f *testing.F) {
	f.Add(uint8(1), encodeProgram(hotPathProgram()))
	f.Add(uint8(1), encodeProgram(rejectProgram()))
	f.Add(uint8(4), encodeProgram(&isa.Program{Insns: []isa.Instruction{
		isa.LoadImm64(isa.R3, ^uint64(0)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}))
	f.Add(uint8(0), []byte{0x07, 0x01, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff})

	k := newBenchKernel()
	f.Fuzz(func(t *testing.T, progType uint8, data []byte) {
		insns := decodeInsns(data)
		if len(insns) == 0 {
			t.Skip("no decodable instructions")
		}
		prog := &isa.Program{
			Type:          isa.AllProgramTypes[int(progType)%len(isa.AllProgramTypes)],
			GPLCompatible: progType%2 == 0,
			Insns:         insns,
		}
		cfg := k.config(coverage.NewMap())
		// Pathological jump graphs are legitimate fuzz inputs; the
		// watchdog turns would-be hangs into a reported TimeoutError.
		cfg.Timeout = 500 * time.Millisecond
		res, err := Verify(prog, cfg)
		if err == nil && res == nil {
			t.Fatal("Verify returned neither result nor error")
		}
	})
}

// loadView renders what a kernel load takes from one verification: the
// verdict, and for an accepted program the verified program, its range
// checks and the instructions processed.
func loadView(res *Result, err error) string {
	if err != nil {
		return fmt.Sprint(err)
	}
	return fmt.Sprintf("%s\nrange checks %v\ninsns processed %d", res.Prog, res.RangeChecks, res.InsnProcessed)
}

// FuzzVerifyRecordStatesNoPanic replays the same contract with the
// oracle's state recording armed: the claim-join path must be as
// panic-free as the bare verifier, and accepted programs must come back
// with a state table sized to the original instruction stream. Recording
// claims must never change a load: with RecordStates off the verdict, the
// verified program, its range checks and the instructions processed are
// the same. The table must hold, claim for claim, what the reference
// recorder (refStateTable) joins from the same steps, accepted or
// rejected, and its live masks must agree with its claims. Recording into
// a table that held another program must also give the verdict and
// claims a fresh table gets: once after a two-instruction program (the
// table grows) and once after dirtyProgram (stale rows that must read as
// ClaimNone, and a pseudo-call and poisoned registers to forget).
func FuzzVerifyRecordStatesNoPanic(f *testing.F) {
	f.Add(uint8(1), encodeProgram(hotPathProgram()))
	f.Add(uint8(1), encodeProgram(rejectProgram()))
	for _, p := range claimPrograms() {
		f.Add(uint8(1), encodeProgram(p))
	}

	k := newBenchKernel()
	dirty := []*isa.Program{sockProg(isa.Mov64Imm(isa.R0, 0), isa.Exit()), dirtyProgram()}
	f.Fuzz(func(t *testing.T, progType uint8, data []byte) {
		insns := decodeInsns(data)
		if len(insns) == 0 {
			t.Skip("no decodable instructions")
		}
		prog := &isa.Program{
			Type:          isa.AllProgramTypes[int(progType)%len(isa.AllProgramTypes)],
			GPLCompatible: true,
			Insns:         insns,
		}
		cfg := k.config(coverage.NewMap())
		cfg.Timeout = 500 * time.Millisecond
		off := *cfg
		cfg.RecordStates = true
		res, err := Verify(prog, cfg)
		if err == nil {
			if res.States == nil {
				t.Fatal("accepted with RecordStates but no state table")
			}
			if res.States.NumInsns() != len(prog.Insns) {
				t.Fatalf("state table covers %d insns, program has %d",
					res.States.NumInsns(), len(prog.Insns))
			}
		}
		offRes, offErr := Verify(prog, &off)
		var te *TimeoutError
		if !errors.As(err, &te) && !errors.As(offErr, &te) {
			if got, want := loadView(res, err), loadView(offRes, offErr); got != want {
				t.Fatalf("recording claims changed the load:\n--- RecordStates on:\n%s\n--- off:\n%s", got, want)
			}
		}

		ref := new(refStateTable)
		fresh := &StateTable{shadow: ref}
		cfg.States = fresh
		_, want := Verify(prog, cfg)
		if fresh.NumInsns() == 0 {
			return // rejected by the structural checks, before recording
		}
		if !errors.As(want, &te) {
			if d := claimsDiff(fresh, ref); d != "" {
				t.Fatalf("against the reference recorder: %s", d)
			}
		}
		if d := liveDiff(fresh); d != "" {
			t.Fatal(d)
		}
		for _, prev := range dirty {
			tab := new(StateTable)
			cfg.States = tab
			Verify(prev, cfg)
			_, got := Verify(prog, cfg)
			if errors.As(got, &te) || errors.As(want, &te) {
				return // a watchdog trip stops recording at a wall-clock point
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after %d insns: verdict %v, fresh table %v", len(prev.Insns), got, want)
			}
			if d := claimsDiff(tab, fresh); d != "" {
				t.Fatalf("after %d insns: %s", len(prev.Insns), d)
			}
			if d := liveDiff(tab); d != "" {
				t.Fatalf("after %d insns: %s", len(prev.Insns), d)
			}
		}
	})
}
