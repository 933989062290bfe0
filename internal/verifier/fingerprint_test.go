package verifier

import (
	"bytes"
	"testing"

	"repro/internal/bugs"
	"repro/internal/isa"
)

// fpTestProgram builds a deterministic program from a seed, with enough
// field variety that every canonical-byte lane carries data.
func fpTestProgram(seed uint64, n int) *isa.Program {
	if n < 1 {
		n = 1
	}
	p := &isa.Program{
		Type:          isa.ProgramType(seed % 4),
		Name:          "fp-test",
		AttachTo:      "sys_enter",
		GPLCompatible: seed%2 == 0,
	}
	x := seed | 1
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := 0; i < n; i++ {
		p.Insns = append(p.Insns, isa.Instruction{
			Opcode: uint8(next()),
			Dst:    uint8(next() % 11),
			Src:    uint8(next() % 11),
			Off:    int16(next()),
			Imm:    int32(next()),
			Imm64:  next(),
		})
	}
	return p
}

func cloneProgram(p *isa.Program) *isa.Program {
	q := *p
	q.Insns = append([]isa.Instruction(nil), p.Insns...)
	return &q
}

// TestProgramFingerprintFieldSensitivity mutates every verification-
// relevant field one at a time and requires the fingerprint to move: a
// field the canonical form ignores would alias distinct programs onto one
// cache entry. (Correctness does not depend on this — lookups compare the
// canonical bytes — but a byte-compare mismatch only yields a miss, and a
// field missing from the canonical form would yield a wrong *hit*.)
func TestProgramFingerprintFieldSensitivity(t *testing.T) {
	base := fpTestProgram(7, 6)
	mutations := map[string]func(*isa.Program){
		"type":           func(p *isa.Program) { p.Type++ },
		"gpl":            func(p *isa.Program) { p.GPLCompatible = !p.GPLCompatible },
		"name":           func(p *isa.Program) { p.Name = "fp-test2" },
		"attach":         func(p *isa.Program) { p.AttachTo = "sys_exit" },
		"opcode":         func(p *isa.Program) { p.Insns[2].Opcode ^= 0x01 },
		"dst":            func(p *isa.Program) { p.Insns[2].Dst ^= 1 },
		"src":            func(p *isa.Program) { p.Insns[2].Src ^= 1 },
		"off-low-byte":   func(p *isa.Program) { p.Insns[2].Off ^= 0x0001 },
		"off-high-byte":  func(p *isa.Program) { p.Insns[2].Off ^= 0x0100 },
		"imm-low-byte":   func(p *isa.Program) { p.Insns[2].Imm ^= 0x00000001 },
		"imm-high-byte":  func(p *isa.Program) { p.Insns[2].Imm ^= 0x01000000 },
		"imm64":          func(p *isa.Program) { p.Insns[2].Imm64 ^= 1 << 40 },
		"meta-rewrite":   func(p *isa.Program) { p.Insns[2].Meta.RewriteEmitted = true },
		"meta-sanitized": func(p *isa.Program) { p.Insns[2].Meta.Sanitized = true },
		"meta-probemem":  func(p *isa.Program) { p.Insns[2].Meta.ProbeMem = true },
		"append-insn":    func(p *isa.Program) { p.Insns = append(p.Insns, isa.Instruction{Opcode: 0x95}) },
		"drop-last-insn": func(p *isa.Program) { p.Insns = p.Insns[:len(p.Insns)-1] },
	}
	baseFP := ProgramFingerprint(base)
	baseCanon := CanonicalProgramBytes(base)
	for name, mutate := range mutations {
		q := cloneProgram(base)
		mutate(q)
		if bytes.Equal(CanonicalProgramBytes(q), baseCanon) {
			t.Errorf("%s: canonical bytes unchanged by mutation", name)
		}
		if ProgramFingerprint(q) == baseFP {
			t.Errorf("%s: fingerprint unchanged by mutation", name)
		}
	}
}

// TestMatchCanonical pins the field-wise decode against the byte builder:
// MatchCanonical(CanonicalProgramBytes(p), p) must hold for arbitrary
// programs, and every single-field perturbation (same set as the
// fingerprint sensitivity test) must break the match — the hit path's
// collision guard compares programs without materializing their bytes,
// so a lane the decoder skipped would turn a fingerprint collision into
// a wrong verdict.
func TestMatchCanonical(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		p := fpTestProgram(seed, int(seed))
		if !MatchCanonical(CanonicalProgramBytes(p), p) {
			t.Fatalf("seed %d: program does not match its own canonical bytes", seed)
		}
	}
	base := fpTestProgram(7, 6)
	canon := CanonicalProgramBytes(base)
	mutations := map[string]func(*isa.Program){
		"type":           func(p *isa.Program) { p.Type++ },
		"gpl":            func(p *isa.Program) { p.GPLCompatible = !p.GPLCompatible },
		"name":           func(p *isa.Program) { p.Name = "fp-test2" },
		"attach":         func(p *isa.Program) { p.AttachTo = "sys_exit" },
		"opcode":         func(p *isa.Program) { p.Insns[2].Opcode ^= 0x01 },
		"dst":            func(p *isa.Program) { p.Insns[2].Dst ^= 1 },
		"src":            func(p *isa.Program) { p.Insns[2].Src ^= 1 },
		"off-low-byte":   func(p *isa.Program) { p.Insns[2].Off ^= 0x0001 },
		"off-high-byte":  func(p *isa.Program) { p.Insns[2].Off ^= 0x0100 },
		"imm-low-byte":   func(p *isa.Program) { p.Insns[2].Imm ^= 0x00000001 },
		"imm-high-byte":  func(p *isa.Program) { p.Insns[2].Imm ^= 0x01000000 },
		"imm64-low":      func(p *isa.Program) { p.Insns[2].Imm64 ^= 1 },
		"imm64-high":     func(p *isa.Program) { p.Insns[2].Imm64 ^= 1 << 40 },
		"meta-rewrite":   func(p *isa.Program) { p.Insns[2].Meta.RewriteEmitted = true },
		"meta-sanitized": func(p *isa.Program) { p.Insns[2].Meta.Sanitized = true },
		"meta-probemem":  func(p *isa.Program) { p.Insns[2].Meta.ProbeMem = true },
		"append-insn":    func(p *isa.Program) { p.Insns = append(p.Insns, isa.Instruction{Opcode: 0x95}) },
		"drop-last-insn": func(p *isa.Program) { p.Insns = p.Insns[:len(p.Insns)-1] },
	}
	for name, mutate := range mutations {
		q := cloneProgram(base)
		mutate(q)
		if MatchCanonical(canon, q) {
			t.Errorf("%s: mutated program still matches the base canonical bytes", name)
		}
		if !MatchCanonical(CanonicalProgramBytes(q), q) {
			t.Errorf("%s: mutated program does not match its own canonical bytes", name)
		}
	}
}

// TestProgramFingerprintDeterministic pins that the fingerprint is a pure
// function of the program value, and identical for clones.
func TestProgramFingerprintDeterministic(t *testing.T) {
	p := fpTestProgram(42, 8)
	if a, b := ProgramFingerprint(p), ProgramFingerprint(p); a != b {
		t.Fatalf("fingerprint unstable: %#x vs %#x", a, b)
	}
	if a, b := ProgramFingerprint(p), ProgramFingerprint(cloneProgram(p)); a != b {
		t.Fatalf("clone fingerprint differs: %#x vs %#x", a, b)
	}
}

// TestCanonicalProgramBytesStringBoundaries pins the length-prefix framing:
// moving a character across the Name/AttachTo boundary must not collide.
func TestCanonicalProgramBytesStringBoundaries(t *testing.T) {
	a := &isa.Program{Name: "ab", AttachTo: "c", Insns: []isa.Instruction{{Opcode: 0x95}}}
	b := &isa.Program{Name: "a", AttachTo: "bc", Insns: []isa.Instruction{{Opcode: 0x95}}}
	if bytes.Equal(CanonicalProgramBytes(a), CanonicalProgramBytes(b)) {
		t.Fatal("length prefixes failed: ab+c collides with a+bc")
	}
}

// exploreStates abstractly executes prog the way Verify does — through
// step, with pruning and rejection — and returns a copy of every state an
// explored path passes through, one per simulated instruction, up to
// limit states. Programs Verify would reject before exploring yield none.
func exploreStates(prog *isa.Program, cfg *Config, limit int) []*State {
	if prog.Validate(isa.MaxInsns) != nil || (LayoutFor(prog.Type) == nil && prog.Type != isa.ProgTypeUnspec) {
		return nil
	}
	cfg.MaxInsnProcessed = 100000
	e := getEnv(prog, cfg)
	defer e.teardown()
	var states []*State
	work := []*State{e.newInitialStatePooled()}
	for len(work) > 0 && len(states) < limit {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		for len(states) < limit && st.Insn >= 0 && st.Insn < len(prog.Insns) {
			states = append(states, st.Clone())
			done, sibling, err := e.step(st, st.Insn)
			if err != nil || done {
				break
			}
			if sibling != nil {
				work = append(work, sibling)
			}
		}
	}
	return states
}

// checkSubsumesFingerprint asserts the invariant fingerprint-gated
// pruning rests on (fingerprint.go): for every pair of states prog's
// exploration passes through, stateSubsumes(old, new) implies
// stateFingerprint(old) == stateFingerprint(new). A pair that breaks it
// is one pruneOrRecord would skip without the deep compare that prunes
// it. Every pair must also get the full-frame refStateSubsumes's answer,
// so comparing only the allocated stacks changes no prune.
func checkSubsumesFingerprint(t *testing.T, prog *isa.Program, cfg *Config) {
	t.Helper()
	states := exploreStates(prog, cfg, 256)
	fps := make([]uint64, len(states))
	for i, s := range states {
		fps[i] = stateFingerprint(s)
	}
	for i, old := range states {
		for j, new := range states {
			sub := stateSubsumes(old, new)
			if fps[i] != fps[j] && sub {
				t.Fatalf("state at insn %d subsumes state at insn %d but fingerprints differ (%#x vs %#x)\n%s",
					old.Insn, new.Insn, fps[i], fps[j], prog)
			}
			if ref := refStateSubsumes(old, new); sub != ref {
				t.Fatalf("stateSubsumes(insn %d, insn %d) = %v, full-frame reference %v\n%s",
					old.Insn, new.Insn, sub, ref, prog)
			}
		}
	}
}

// TestStateFingerprintIncrementalAudit audits the state fingerprint step
// by step along every explored path of the selftest corpus — helper and
// kfunc calls, bpf-to-bpf frames, null-check branches, packet-range
// refinement, reference release, the armed-bug knobs — checking the
// subsumption invariant over every pair of states each case passes
// through.
func TestStateFingerprintIncrementalAudit(t *testing.T) {
	for _, tc := range selftests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg, done := selftestKernel(t, tc.armed())
			defer done()
			checkSubsumesFingerprint(t, tc.program(t), cfg)
		})
	}
}

// FuzzStateSubsumesFingerprint checks the same invariant on arbitrary
// decodable programs, under any program type, attach target, license and
// combination of armed bug knobs (bit k of armed arms bugs.AllIDs()[k]).
// The selftest corpus seeds it.
func FuzzStateSubsumesFingerprint(f *testing.F) {
	ids := bugs.AllIDs()
	for i := range selftests {
		tc := &selftests[i]
		prog := tc.program(f)
		var armed uint16
		for k, id := range ids {
			if tc.armed().Has(id) {
				armed |= 1 << k
			}
		}
		f.Add(programTypeIndex(prog.Type), prog.AttachTo, prog.GPLCompatible, armed, encodeProgram(prog))
	}
	cfg, done := selftestKernel(f, nil)
	f.Cleanup(done)
	f.Fuzz(func(t *testing.T, progType uint8, attachTo string, gpl bool, armed uint16, data []byte) {
		insns := decodeInsns(data)
		if len(insns) == 0 {
			t.Skip("no decodable instructions")
		}
		prog := &isa.Program{
			Type:          isa.AllProgramTypes[int(progType)%len(isa.AllProgramTypes)],
			AttachTo:      attachTo,
			GPLCompatible: gpl,
			Insns:         insns,
		}
		c := *cfg
		c.Bugs = bugs.None()
		for k, id := range ids {
			if armed&(1<<k) != 0 {
				c.Bugs[id] = true
			}
		}
		checkSubsumesFingerprint(t, prog, &c)
	})
}

// programTypeIndex is t's index in isa.AllProgramTypes.
func programTypeIndex(t isa.ProgramType) uint8 {
	for i, pt := range isa.AllProgramTypes {
		if pt == t {
			return uint8(i)
		}
	}
	return 0
}

// FuzzProgramFingerprintSingleByte asserts the no-collision property the
// verdict cache's index quality rests on: two programs differing in
// exactly one imm or off byte never share a fingerprint. This is exact,
// not probabilistic — FNV-1a's xor and odd-prime multiply are both
// bijections on u64, so a single differing byte at one position in
// equal-length inputs propagates to the final hash.
func FuzzProgramFingerprintSingleByte(f *testing.F) {
	f.Add(uint64(7), uint(2), uint(0), byte(0xff))
	f.Add(uint64(1), uint(0), uint(5), byte(0x00))
	f.Add(uint64(99), uint(11), uint(3), byte(0x5a))
	f.Fuzz(func(t *testing.T, seed uint64, insnSel, byteSel uint, nb byte) {
		p := fpTestProgram(seed, 1+int(seed%12))
		q := cloneProgram(p)
		ins := &q.Insns[int(insnSel)%len(q.Insns)]
		// byteSel picks one of the six single-byte lanes: imm[0..3], off[0..1].
		switch lane := byteSel % 6; lane {
		case 0, 1, 2, 3:
			shift := 8 * lane
			old := uint32(ins.Imm)
			mut := old&^(0xff<<shift) | uint32(nb)<<shift
			if mut == old {
				t.Skip("mutation is the identity")
			}
			ins.Imm = int32(mut)
		case 4, 5:
			shift := 8 * (lane - 4)
			old := uint16(ins.Off)
			mut := old&^(0xff<<shift) | uint16(nb)<<shift
			if mut == old {
				t.Skip("mutation is the identity")
			}
			ins.Off = int16(mut)
		}
		pc, qc := CanonicalProgramBytes(p), CanonicalProgramBytes(q)
		if bytes.Equal(pc, qc) {
			t.Fatal("single-byte field mutation did not change canonical bytes")
		}
		if len(pc) != len(qc) {
			t.Fatalf("imm/off mutation changed canonical length: %d vs %d", len(pc), len(qc))
		}
		if ProgramFingerprint(p) == ProgramFingerprint(q) {
			t.Errorf("fingerprint collision on single-byte difference: seed=%d insn=%d byte=%d nb=%#x",
				seed, int(insnSel)%len(p.Insns), byteSel%6, nb)
		}
	})
}
