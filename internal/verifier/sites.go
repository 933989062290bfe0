package verifier

import (
	"strconv"

	"repro/internal/coverage"
)

// Coverage sites. A site is named by a string, and a dynamic one —
// "call:<helper>", "mem:map_value:<type>:<size>:<store>" and friends — by
// its parts: e.cov hashes them with coverage.SiteOfParts, which gives
// SiteOf of their concatenation without building it. The three dynamic
// sites on per-instruction paths (jump outcome, scalar ALU op, stack
// access) are looked up in arrays that init fills by the same function,
// because hashing their names on every instruction costs more than an
// index (DESIGN.md "Coverage fast path").

// siteHot names the constant sites on the per-instruction hot path.
var (
	sitePruneHit      = coverage.SiteOf("prune:hit")
	sitePruneLoop     = coverage.SiteOf("prune:loop")
	siteExitMain      = coverage.SiteOf("exit:main")
	siteExitSubprog   = coverage.SiteOf("exit:subprog")
	siteJmpJA         = coverage.SiteOf("jmp:ja")
	siteJmpInfeasible = coverage.SiteOf("jmp:infeasible_both")
	siteMemCtx        = coverage.SiteOf("mem:ctx")
	siteMemPkt        = coverage.SiteOf("mem:pkt")
	siteMemAtomic     = coverage.SiteOf("mem:atomic")
	siteAluMovImm     = coverage.SiteOf("alu:mov_imm")
	siteAluMovReg     = coverage.SiteOf("alu:mov_reg")
	siteAluMov32Reg   = coverage.SiteOf("alu:mov32_reg")
	siteAluPtrConst   = coverage.SiteOf("alu:ptr_const")
	siteLdImm64Const  = coverage.SiteOf("ld_imm64:const")
)

const (
	// maxJmpOutcome covers branchUnknown/branchAlwaysTaken/branchNeverTaken.
	maxJmpOutcome = 3
)

var (
	// jmpOutcomeSites[op][outcome] = Site("jmp:<op>:<outcome>").
	jmpOutcomeSites [256][maxJmpOutcome]coverage.Site
	// aluScalarSites[op] = Site("alu:scalar:<op>").
	aluScalarSites [256]coverage.Site
	// stackAccessSites[size][isStore] = Site("mem:stack:<size>:<bool>").
	stackAccessSites [9][2]coverage.Site
)

func init() {
	for op := range jmpOutcomeSites {
		for o := range jmpOutcomeSites[op] {
			jmpOutcomeSites[op][o] = coverage.SiteOfParts("jmp:", jmpOpName(uint8(op)), ":", outcomeName(branchOutcome(o)))
		}
		aluScalarSites[op] = coverage.SiteOfParts("alu:scalar:", aluOpName(uint8(op)))
	}
	for size := range stackAccessSites {
		for i, store := range []bool{false, true} {
			stackAccessSites[size][i] = coverage.SiteOfParts("mem:stack:", strconv.Itoa(size), ":", strconv.FormatBool(store))
		}
	}
}

// cov records the site named by the concatenation of parts.
func (e *env) cov(parts ...string) { e.lcov.Hit(coverage.SiteOfParts(parts...)) }

// covs records a precomputed site.
func (e *env) covs(s coverage.Site) { e.lcov.Hit(s) }

// covStackAccess records "mem:stack:<size>:<isStore>". size is an access
// width from isa.SizeBytes, 0 to 8.
func (e *env) covStackAccess(size int, isStore bool) {
	idx := 0
	if isStore {
		idx = 1
	}
	e.lcov.Hit(stackAccessSites[size][idx])
}
