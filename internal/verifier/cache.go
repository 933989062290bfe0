package verifier

import (
	"errors"
	"slices"

	"repro/internal/coverage"
	"repro/internal/isa"
)

// Verdict caching.
//
// A Cache memoizes whole-program verdicts across Verify calls: sibling
// shards and mutation chains regenerate byte-identical programs
// constantly, and a hit replays the memoized verdict, counters, and the
// coverage site set the scratch verification produced, so cached-on
// and cached-off campaigns stay bit-identical. A miss always verifies
// from the initial state.
//
// Correctness rules, enforced here rather than trusted to implementations:
//
//   - the 64-bit fingerprint is only the index. Every entry carries its
//     canonical program bytes and lookups compare them exactly, so an FNV
//     collision degrades to a miss, never to a wrong verdict;
//   - entries never store kernel addresses. The fixed-up program is
//     re-derived from the original program on every hit (fixupProgram),
//     resolving its map FDs through Config.MapByFD, because map kernel
//     addresses are not stable across kernel recycles;
//   - a hit whose program no longer fixes up (stale FD, missing
//     resolver) falls back to scratch verification instead of erroring.
//     The fixup resolves every map load in the program, so it covers
//     every map the verification used;
//   - watchdog timeouts are never cached: a TimeoutError is a harness
//     resource verdict, not a program property.
type Cache interface {
	// Lookup returns the memoized verdict for the program with the given
	// fingerprint, or nil on a miss. Implementations must reject an entry
	// whose stored canonical bytes are not exactly p's canonical form
	// (MatchCanonical) — the caller passes the live program instead of
	// built canonical bytes so the hit path stays allocation-free.
	Lookup(fp uint64, p *isa.Program) *CachedVerdict
	// Insert memoizes a verdict. Implementations must treat the entry and
	// everything it references as immutable from this point on.
	Insert(fp uint64, v *CachedVerdict)
}

// cacheable reports whether this verification may consult the cache.
// The oracle's StateTable is a per-run artifact a replay cannot
// reproduce (RecordStates runs bypass the cache entirely so indicator-3
// soundness checks never see a stale claim table), and entries always
// carry a replayable coverage site set, so coverage must be on.
func cacheable(cfg *Config) bool {
	return cfg.Cache != nil && !cfg.RecordStates && cfg.Cov != nil
}

// CachedVerdict is one memoized whole-program verification outcome.
type CachedVerdict struct {
	// Prog is the canonical byte form of the verified program; Lookup
	// compares it exactly to make fingerprint collisions harmless.
	Prog []byte

	// Rejected splits the two outcomes below.
	Rejected bool
	// Insn / Errno / Msg reproduce the *Error of a rejection. Msg is
	// pre-rendered: the lazy format/args of the original error are private
	// and a replayed error must compare equal through Error.Message.
	Insn  int
	Errno int
	Msg   string

	// Acceptance payload (Rejected == false). The fixed-up program itself
	// is NOT stored — it embeds map kernel addresses that go stale when
	// the campaign recycles its kernel — and is instead re-derived from
	// the original program on every hit.
	InsnProcessed int
	PeakStates    int
	TotalStates   int
	RangeChecks   []RangeCheck
	// ProbeLoads lists, ascending, the loads fixup converts to probe
	// reads: the Meta.ProbeMem bits of the scratch fixed-up program.
	ProbeLoads []int32
	R0Bounds   ReturnBounds

	// Cov is the sorted coverage site set the scratch verification
	// recorded, replayed into Config.Cov on every hit.
	Cov []coverage.Site
}

// EstimateBytes approximates the entry's memory footprint for the cache
// byte counter (vcache.Counters.InsertedBytes).
func (v *CachedVerdict) EstimateBytes() int {
	n := 96 + len(v.Prog) + len(v.Msg)
	n += len(v.RangeChecks) * 40
	n += len(v.ProbeLoads) * 4
	n += len(v.Cov) * 8
	return n
}

// newCachedVerdict builds the cache entry for one scratch verification, or
// nil when the outcome must not be cached (timeouts, internal errors).
func newCachedVerdict(canon []byte, res *Result, err error, cov []coverage.Site) *CachedVerdict {
	if err != nil {
		// Fast path: verify returns its *Error values unwrapped, and the
		// errors.As target cell heap-escapes on every call.
		ve, ok := err.(*Error)
		if !ok && !errors.As(err, &ve) {
			return nil
		}
		return &CachedVerdict{
			Prog:     canon,
			Rejected: true,
			Insn:     ve.Insn,
			Errno:    ve.Errno,
			Msg:      ve.Message(),
			Cov:      cov,
		}
	}
	var probes []int32
	for i := range res.Prog.Insns {
		if res.Prog.Insns[i].Meta.ProbeMem {
			probes = append(probes, int32(i))
		}
	}
	return &CachedVerdict{
		Prog:          canon,
		InsnProcessed: res.InsnProcessed,
		PeakStates:    res.PeakStates,
		TotalStates:   res.TotalStates,
		RangeChecks:   res.RangeChecks,
		ProbeLoads:    probes,
		R0Bounds:      res.R0Bounds,
		Cov:           cov,
	}
}

// materialize replays the memoized outcome under cfg. ok == false demotes
// the hit to a miss (the caller verifies from scratch): the program no
// longer fixes up, because a map FD no longer resolves. The fixup runs
// before any observable side effect (the coverage replay), so a failed
// materialization leaves cfg.Cov untouched.
func (v *CachedVerdict) materialize(prog *isa.Program, cfg *Config) (*Result, error, bool) {
	var fixed *isa.Program
	if !v.Rejected {
		var err error
		fixed, err = fixupProgram(prog, cfg, func(i int) bool { return slices.Contains(v.ProbeLoads, int32(i)) }, staleFixup)
		if err != nil {
			return nil, nil, false
		}
	}
	cfg.Cov.AddSites(v.Cov)
	if v.Rejected {
		return nil, &Error{Insn: v.Insn, Msg: v.Msg, Errno: v.Errno}, true
	}
	return &Result{
		Prog:          fixed,
		InsnProcessed: v.InsnProcessed,
		PeakStates:    v.PeakStates,
		TotalStates:   v.TotalStates,
		RangeChecks:   v.RangeChecks,
		R0Bounds:      v.R0Bounds,
	}, nil, true
}

// errStaleFixup marks a cache hit whose program no longer fixes up. The
// hit falls back to scratch verification, which produces the real
// rejection.
var errStaleFixup = errors.New("verifier: cached program no longer fixes up")

// staleFixup is materialize's reject callback for fixupProgram.
func staleFixup(int, int, string, ...interface{}) error { return errStaleFixup }

// PrefixSnapshot is what the removed trace-prefix snapshot layer
// stored. Only the name remains, so code written against that layer
// still compiles.
//
// Deprecated: Verify always explores from the initial state; nothing
// produces or consumes a PrefixSnapshot.
type PrefixSnapshot struct{}

// exportCov captures the local coverage recorder into *dst. It is
// registered as a deferred call after the FlushTo defer, so it runs first
// (LIFO) — while the recorder still holds the run's sites.
func (e *env) exportCov(dst *[]coverage.Site) {
	*dst = e.lcov.Export()
}
