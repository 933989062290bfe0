package verifier

import (
	"repro/internal/isa"
	"repro/internal/maps"
)

// fixup is the post-verification rewrite phase (the kernel's
// resolve_pseudo_ldimm64 results + convert_ctx_accesses + do_misc_fixups
// rolled together for this simulator):
//
//   - pseudo map-fd and map-value loads are resolved to the map object's
//     kernel address / the value's address;
//   - pseudo BTF-id loads are resolved to the kernel variable's address;
//   - loads the checker validated through PTR_TO_BTF_ID are marked as
//     exception-handled probe reads.
//
// Instruction count is unchanged, so RangeCheck indices remain valid. The
// sanitizer (internal/sanitizer) runs after this phase, exactly as the
// paper inserts its instrumentation "at the end of the rewriting phase".
func (e *env) fixup() (*isa.Program, error) {
	return fixupProgram(e.prog, e.cfg, func(i int) bool { return e.probeMem[i] }, e.reject)
}

// fixupProgram is the rewrite loop itself, on a clone of prog. A scratch
// verification runs it through env.fixup; a verdict-cache hit runs it
// again on every hit (CachedVerdict.materialize), because the fixed-up
// program embeds map addresses that change when the campaign recycles its
// kernel. probeMem reports whether instruction i was checked through
// PTR_TO_BTF_ID; reject builds the error for an instruction whose map or
// BTF reference no longer resolves.
func fixupProgram(prog *isa.Program, cfg *Config, probeMem func(i int) bool,
	reject func(insn, errno int, format string, args ...interface{}) error) (*isa.Program, error) {
	out := prog.Clone()
	for i := range out.Insns {
		ins := &out.Insns[i]
		if ins.IsWide() {
			switch ins.Src {
			case isa.PseudoMapFD:
				m := cfg.mapByFD(int32(ins.Imm64))
				if m == nil {
					return nil, reject(i, EINVAL, "fixup: stale map fd %d", int32(ins.Imm64))
				}
				rewriteImm64(ins, m.KernAddr)
			case isa.PseudoMapValue:
				m := cfg.mapByFD(int32(uint32(ins.Imm64)))
				if m == nil || m.Type != maps.Array {
					return nil, reject(i, EINVAL, "fixup: stale map fd")
				}
				off := uint64(uint32(ins.Imm64 >> 32))
				rewriteImm64(ins, m.ValueAllocation().BaseAddr+off)
			case isa.PseudoBTFID:
				if cfg.BTFVarAddr == nil {
					return nil, reject(i, EINVAL, "fixup: no btf var resolver")
				}
				rewriteImm64(ins, cfg.BTFVarAddr(int32(ins.Imm64)))
			}
		}
		if ins.IsMemLoad() && probeMem(i) {
			ins.Meta.ProbeMem = true
		}
	}
	return out, nil
}

func rewriteImm64(ins *isa.Instruction, addr uint64) {
	ins.Src = 0
	ins.Imm64 = addr
	ins.Imm = int32(uint32(addr))
	ins.Meta.RewriteEmitted = false
}
