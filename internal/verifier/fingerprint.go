package verifier

import "repro/internal/isa"

// Structural state fingerprints gate the pruning deep compare, mirroring
// the kernel's hashed explored_states lists. pruneOrRecord only runs
// stateSubsumes against recorded snapshots whose fingerprint matches the
// candidate's, so the O(snapshots) scan per instruction visit degenerates
// to a few u64 compares in the common no-match case.
//
// Soundness requirement: stateSubsumes(old, new) must imply
// fp(old) == fp(new) — a fingerprint mismatch may only skip pairs that
// the deep compare would have rejected anyway, never a pair it would
// have pruned. The fingerprint therefore folds exactly the fields
// stateSubsumes compares for *equality* (the "rigid" structure): frame
// and ref counts, per-frame call sites, register types, and the
// per-type identity fields (stack/ctx offsets, map identity + offset,
// BTF ids, mem sizes). Fields compared by inclusion — scalar bounds,
// tnums, packet ranges, MaybeNull, and every stack slot (SlotMisc
// subsumes Zero/Spill) — are deliberately left out.

const (
	fpOffset64 = 14695981039346656037
	fpPrime64  = 1099511628211
)

func fpMix(h, v uint64) uint64 {
	h ^= v
	h *= fpPrime64
	return h
}

// Whole-program fingerprints key the verdict cache. The canonical byte
// form folds every field that can influence verification or the returned
// Result: the program attributes (type, name, attach target, license)
// and, per instruction, opcode/dst/src/off/imm/imm64 plus the Meta
// provenance flags. Two programs with equal canonical bytes are
// verified identically by construction; the 64-bit FNV-1a fingerprint
// over those bytes is only the cache index — lookups compare the stored
// canonical bytes exactly, so a fingerprint collision degrades to a
// cache miss, never to a wrong verdict.

// CanonicalProgramBytes serializes p's verification-relevant identity.
func CanonicalProgramBytes(p *isa.Program) []byte {
	// attrs: type, gpl, name, attach target (length-prefixed strings so
	// "ab"+"c" and "a"+"bc" cannot collide).
	out := make([]byte, 0, 24+len(p.Name)+len(p.AttachTo)+18*len(p.Insns))
	out = append(out, byte(p.Type))
	if p.GPLCompatible {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = appendString(out, p.Name)
	out = appendString(out, p.AttachTo)
	out = appendU32(out, uint32(len(p.Insns)))
	for i := range p.Insns {
		out = appendOneInsn(out, &p.Insns[i])
	}
	return out
}

func appendString(out []byte, s string) []byte {
	out = appendU32(out, uint32(len(s)))
	return append(out, s...)
}

func appendU32(out []byte, v uint32) []byte {
	return append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(out []byte, v uint64) []byte {
	out = appendU32(out, uint32(v))
	return appendU32(out, uint32(v>>32))
}

// insnMetaByte packs the Meta provenance flags into one canonical byte.
func insnMetaByte(ins *isa.Instruction) byte {
	var meta byte
	if ins.Meta.RewriteEmitted {
		meta |= 1
	}
	if ins.Meta.Sanitized {
		meta |= 2
	}
	if ins.Meta.ProbeMem {
		meta |= 4
	}
	return meta
}

// appendOneInsn appends one instruction's canonical bytes:
// opcode/dst/src, little-endian off, imm, imm64, then the meta byte.
func appendOneInsn(out []byte, ins *isa.Instruction) []byte {
	out = append(out, ins.Opcode, ins.Dst, ins.Src)
	out = append(out, byte(ins.Off), byte(uint16(ins.Off)>>8))
	out = appendU32(out, uint32(ins.Imm))
	out = appendU64(out, ins.Imm64)
	return append(out, insnMetaByte(ins))
}

// fpStr folds a length-prefixed string word-wise into an xor-multiply
// running hash (the length prefix keeps "ab"+"c" and "a"+"bc" apart).
func fpStr(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	for len(s) >= 8 {
		h = fpMix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return fpMix(h, tail)
}

// ProgramFingerprint returns the 64-bit verdict-cache key for p. It folds
// exactly the fields CanonicalProgramBytes serializes, but word-at-a-time
// (three xor-multiply steps per instruction instead of eighteen byte
// folds) and without materializing the canonical bytes — the fingerprint
// is computed on every Verify call, hit or miss, so it must be cheap and
// allocation-free. It is an independent hash, not FNV-1a over the
// canonical form; the only consistency requirement is that Lookup and
// Insert key with the same function, and a collision degrades to a miss
// because entries are compared against the program exactly
// (MatchCanonical).
func ProgramFingerprint(p *isa.Program) uint64 {
	h := uint64(fpOffset64)
	var gpl uint64
	if p.GPLCompatible {
		gpl = 1
	}
	h = fpMix(h, uint64(p.Type)<<1|gpl)
	h = fpStr(h, p.Name)
	h = fpStr(h, p.AttachTo)
	h = fpMix(h, uint64(len(p.Insns)))
	for i := range p.Insns {
		ins := &p.Insns[i]
		h = fpMix(h, uint64(ins.Opcode)|uint64(ins.Dst)<<8|uint64(ins.Src)<<16|
			uint64(uint16(ins.Off))<<24|uint64(insnMetaByte(ins))<<40)
		h = fpMix(h, uint64(uint32(ins.Imm)))
		h = fpMix(h, ins.Imm64)
	}
	return h
}

// MatchCanonical reports whether canon is exactly CanonicalProgramBytes(p),
// decoding field-by-field instead of materializing p's byte form — the
// verdict-cache hit path compares a stored entry against a live program
// without allocating. Must mirror CanonicalProgramBytes/appendOneInsn
// byte for byte; TestMatchCanonical pins that.
func MatchCanonical(canon []byte, p *isa.Program) bool {
	want := 2 + 4 + len(p.Name) + 4 + len(p.AttachTo) + 4 + 18*len(p.Insns)
	if len(canon) != want {
		return false
	}
	var gpl byte
	if p.GPLCompatible {
		gpl = 1
	}
	if canon[0] != byte(p.Type) || canon[1] != gpl {
		return false
	}
	b := canon[2:]
	for _, s := range []string{p.Name, p.AttachTo} {
		if u32At(b) != uint32(len(s)) || string(b[4:4+len(s)]) != s {
			return false
		}
		b = b[4+len(s):]
	}
	if u32At(b) != uint32(len(p.Insns)) {
		return false
	}
	b = b[4:]
	for i := range p.Insns {
		ins := &p.Insns[i]
		if b[0] != ins.Opcode || b[1] != ins.Dst || b[2] != ins.Src ||
			b[3] != byte(ins.Off) || b[4] != byte(uint16(ins.Off)>>8) ||
			u32At(b[5:]) != uint32(ins.Imm) ||
			uint64(u32At(b[9:]))|uint64(u32At(b[13:]))<<32 != ins.Imm64 ||
			b[17] != insnMetaByte(ins) {
			return false
		}
		b = b[18:]
	}
	return true
}

// u32At decodes appendU32's little-endian byte order.
func u32At(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// stateFingerprint folds the rigid structure of s into 64 bits: frame and
// reference counts, then per frame its call site and each register's type
// and identity fields. It is a full walk on every call; pruneOrRecord
// computes it once per prune check.
func stateFingerprint(s *State) uint64 {
	h := uint64(fpOffset64)
	h = fpMix(h, uint64(len(s.Frames)))
	h = fpMix(h, uint64(len(s.Refs)))
	for _, f := range s.Frames {
		h = fpMix(h, uint64(int64(f.CallSite)))
		for r := range f.Regs {
			h = fpReg(h, &f.Regs[r])
		}
	}
	return h
}

// fpReg folds one register's type and the identity fields stateSubsumes
// requires to be equal for that type.
func fpReg(h uint64, reg *RegState) uint64 {
	h = fpMix(h, uint64(reg.Type))
	switch reg.Type {
	case PtrToStack, PtrToCtx, PtrToPacket:
		h = fpMix(h, uint64(int64(reg.Off)))
	case PtrToMapValue:
		h = fpMix(h, uint64(reg.MapIdx))
		h = fpMix(h, uint64(int64(reg.Off)))
	case ConstPtrToMap:
		h = fpMix(h, uint64(reg.MapIdx))
	case PtrToBTFID:
		h = fpMix(h, uint64(int64(reg.BTF)))
		h = fpMix(h, uint64(int64(reg.Off)))
	case PtrToMem:
		h = fpMix(h, uint64(int64(reg.Off)))
		h = fpMix(h, uint64(reg.MemSize))
	}
	return h
}
