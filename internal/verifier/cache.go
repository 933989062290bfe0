package verifier

import (
	"errors"

	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/maps"
)

// Verdict caching (ROADMAP item 2, "incremental re-verification").
//
// A Cache memoizes two things across Verify calls:
//
//   - whole-program verdicts: sibling shards and mutation chains regenerate
//     byte-identical programs constantly; a hit replays the memoized
//     verdict, counters, and the exact coverage profile the scratch
//     verification produced, so cached-on and cached-off campaigns stay
//     bit-identical;
//   - linear-prefix snapshots: the structured generator's init frame
//     opens with straight-line code and helper calls shared by whole
//     batches of sibling mutants, so the abstract state at the first jump,
//     bpf-to-bpf call or exit is captured once and resumed by every mutant
//     whose prefix bytes are unchanged.
//
// Correctness rules, enforced here rather than trusted to implementations:
//
//   - the 64-bit fingerprint is only the index. Every entry carries its
//     canonical program bytes and lookups compare them exactly, so an FNV
//     collision degrades to a miss, never to a wrong verdict;
//   - entries never store kernel addresses. Map references are stored as
//     FDs and rebound through Config.MapByFD on every hit, and the fixed-up
//     program is re-derived from the original program on every hit
//     (fixupProgram), because map kernel addresses are not stable across
//     kernel recycles;
//   - a hit that cannot be rebound (stale FD, missing resolver) falls back
//     to scratch verification instead of erroring;
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
	// LookupPrefix returns the memoized boundary snapshot for the trace
	// prefix with the given fingerprint and canonical bytes, or nil.
	LookupPrefix(fp uint64, canon []byte) *PrefixSnapshot
	// InsertPrefix memoizes a boundary snapshot (immutable once inserted).
	InsertPrefix(fp uint64, s *PrefixSnapshot)
	// NotePrefix records that a trace prefix with the given fingerprint
	// was encountered and reports whether it had been encountered before.
	// Snapshot capture is gated on recurrence (the "second sight" filter):
	// most prefixes are seen exactly once, and capturing those would retain
	// a deep abstract-state clone per one-shot program — pure GC pressure
	// with zero future hits.
	NotePrefix(fp uint64) bool
}

// cacheable reports whether this verification may consult the cache. The
// cache path requires the default introspection level: log rendering and
// the oracle's StateTable are per-run artifacts a replay cannot reproduce
// (RecordStates runs bypass the cache entirely so indicator-3 soundness
// checks never see a stale claim table), and entries always carry a
// replayable coverage profile, so coverage must be on.
func cacheable(cfg *Config) bool {
	return cfg.Cache != nil && cfg.LogLevel == 0 && !cfg.RecordStates && cfg.Cov != nil
}

// CachedVerdict is one memoized whole-program verification outcome. All
// fields are exported so checkpointed campaigns can persist entries with
// encoding/gob.
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
	ProbeMem      map[int]bool
	// UsedMapFDs lists Result.UsedMaps by FD in first-use order.
	UsedMapFDs []int32
	R0Bounds   ReturnBounds

	// Cov is the exact (site, count) coverage profile the scratch
	// verification recorded, replayed into Config.Cov on every hit.
	Cov []coverage.SiteCount
}

// EstimateBytes approximates the entry's memory footprint for the cache
// byte counters (Stats.CacheInsertedBytes).
func (v *CachedVerdict) EstimateBytes() int {
	n := 96 + len(v.Prog) + len(v.Msg)
	n += len(v.RangeChecks) * 40
	n += len(v.ProbeMem) * 16
	n += len(v.UsedMapFDs) * 4
	n += len(v.Cov) * 16
	return n
}

// newCachedVerdict builds the cache entry for one scratch verification, or
// nil when the outcome must not be cached (timeouts, internal errors).
func newCachedVerdict(canon []byte, res *Result, err error, cov []coverage.SiteCount) *CachedVerdict {
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
	var fds []int32
	if len(res.UsedMaps) > 0 {
		fds = make([]int32, len(res.UsedMaps))
		for i, m := range res.UsedMaps {
			fds[i] = m.FD
		}
	}
	return &CachedVerdict{
		Prog:          canon,
		InsnProcessed: res.InsnProcessed,
		PeakStates:    res.PeakStates,
		TotalStates:   res.TotalStates,
		RangeChecks:   res.RangeChecks,
		ProbeMem:      res.ProbeMem,
		UsedMapFDs:    fds,
		R0Bounds:      res.R0Bounds,
		Cov:           cov,
	}
}

// materialize replays the memoized outcome under cfg. ok == false demotes
// the hit to a miss (the caller verifies from scratch): a map FD no longer
// resolves, or the re-fixup failed. Every rebind is validated before any
// observable side effect (the coverage replay), so a failed materialization
// leaves cfg.Cov untouched.
func (v *CachedVerdict) materialize(prog *isa.Program, cfg *Config) (*Result, error, bool) {
	var used []*maps.Map
	if n := len(v.UsedMapFDs); n > 0 {
		if cfg.MapByFD == nil {
			return nil, nil, false
		}
		used = make([]*maps.Map, n)
		for i, fd := range v.UsedMapFDs {
			m := cfg.MapByFD(fd)
			if m == nil {
				return nil, nil, false
			}
			used[i] = m
		}
	}
	var fixed *isa.Program
	if !v.Rejected {
		var err error
		fixed, err = fixupProgram(prog, cfg, func(i int) bool { return v.ProbeMem[i] }, staleFixup)
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
		ProbeMem:      v.ProbeMem,
		UsedMaps:      used,
		R0Bounds:      v.R0Bounds,
	}, nil, true
}

// errStaleFixup marks a cache hit whose program no longer fixes up. The
// hit falls back to scratch verification, which produces the real
// rejection.
var errStaleFixup = errors.New("verifier: cached program no longer fixes up")

// staleFixup is materialize's reject callback for fixupProgram.
func staleFixup(int, int, string, ...interface{}) error { return errStaleFixup }

// PrefixSnapshot is the abstract state at the end of a program's linear
// prefix: the instructions [0, Len) that come before the first jump-class
// instruction other than a helper or kfunc call. Every exploration of the
// program executes exactly this run first, on a single path, so the whole
// env side state at the boundary is well defined and a resumed
// verification is bit-identical to a scratch one. The run contains no
// jump, so it records no prune snapshot and issues no snapshot id.
//
// Prefix snapshots hold *maps.Map pointers (inside State registers) and are
// therefore never serialized into checkpoints; they are rebuilt cheaply
// after a resume. Map references are rebound by FD on every application.
type PrefixSnapshot struct {
	// Canon is the canonical byte form of the prefix (attrs + insns[:Len]);
	// LookupPrefix compares it exactly.
	Canon []byte
	// Len is the prefix length in decoded instructions.
	Len int

	// State is the abstract machine state at the boundary (State.Insn ==
	// Len). It is a deep private copy; apply clones it again per use.
	State *State

	// Env side state at the boundary, in compact form: only the entries
	// the prefix run actually set, in instruction order.
	InsnProcessed int
	IDCounter     uint32
	RefCounter    uint32
	// InsnRegType pairs an instruction index with its recorded access
	// type in env encoding (RegType + 1).
	InsnRegType []PrefixInsnType
	// RangeChecks carries the live alu_limit beliefs (InsnIdx embedded).
	RangeChecks []RangeCheck
	// AluScalarPath / ProbeMem list the marked instruction indices.
	AluScalarPath []int32
	ProbeMem      []int32
	// UsedMapFDs is env.usedMaps by FD in first-use order.
	UsedMapFDs []int32

	// Cov is the coverage the prefix run recorded, replayed into the
	// resumed verification's local recorder.
	Cov []coverage.SiteCount
}

// PrefixInsnType is one (instruction, recorded access type) pair in a
// prefix snapshot. T uses the env encoding (RegType + 1).
type PrefixInsnType struct {
	Insn int32
	T    int32
}

// EstimateBytes approximates the snapshot's footprint for cache counters.
func (s *PrefixSnapshot) EstimateBytes() int {
	n := 160 + len(s.Canon)
	n += len(s.State.Frames) * 2200 // FuncState: 11 regs + 64 stack slots
	n += len(s.InsnRegType) * 8
	n += len(s.RangeChecks) * 40
	n += len(s.AluScalarPath) * 4
	n += len(s.ProbeMem) * 4
	n += len(s.UsedMapFDs) * 4
	n += len(s.Cov) * 16
	return n
}

// minPrefixInsns is the shortest prefix worth snapshotting: below this the
// bookkeeping costs more than re-simulating the instructions.
const minPrefixInsns = 4

// maxTracePrefixInsns bounds the prefix: beyond this the canonical byte
// form and the snapshot stop paying for themselves, and a bound keeps the
// per-prefix canon size O(1) with respect to the instruction budget.
const maxTracePrefixInsns = 512

// tracePrefix returns the length of the program's linear prefix: the
// instructions from 0 up to the first jump-class instruction that is not
// a helper or kfunc call (checkCall resumes those at i+1 on the same
// state, or rejects), at most maxTracePrefixInsns. A jump later in the
// program may re-enter the prefix; that is harmless, because the prefix
// run leaves no prune snapshot behind for the re-entry to meet.
func (e *env) tracePrefix() int {
	n := min(len(e.prog.Insns), maxTracePrefixInsns)
	for i := 0; i < n; i++ {
		ins := &e.prog.Insns[i]
		if isa.IsJmpClass(ins.Class()) && !ins.IsHelperCall() && !ins.IsKfuncCall() {
			return i
		}
	}
	return n
}

// runTrace simulates the linear prefix [0, n) on st through step, the
// same per-instruction sequence runPath uses, so a scratch run and the
// run that captures a snapshot account identically.
func (e *env) runTrace(st *State, n int) error {
	for i := st.Insn; i < n; i = st.Insn {
		done, sibling, err := e.step(st, i)
		if err != nil {
			return err
		}
		if done || sibling != nil {
			// Cannot happen: the prefix holds no jump, and helper and
			// kfunc calls resume at i+1 on the same state.
			return e.reject(i, EINVAL, "internal: branch inside trace prefix")
		}
	}
	return nil
}

// capturePrefix snapshots the boundary state after a scratch runTrace of
// the first n instructions. Everything captured is deep-copied so later
// exploration (and state/env pooling) cannot mutate the published
// snapshot. The env scratch tables are walked only up to the boundary —
// the prefix run cannot have touched anything beyond it — and compacted to
// just the live entries, in instruction order.
func (e *env) capturePrefix(st *State, canon []byte, n int) *PrefixSnapshot {
	var fds []int32
	if len(e.usedMaps) > 0 {
		fds = make([]int32, len(e.usedMaps))
		for i, m := range e.usedMaps {
			fds[i] = m.FD
		}
	}
	snap := &PrefixSnapshot{
		Canon:         canon,
		Len:           n,
		State:         st.Clone(),
		InsnProcessed: e.insnProcessed,
		IDCounter:     e.idCounter,
		RefCounter:    e.refCounter,
		UsedMapFDs:    fds,
		Cov:           e.lcov.Export(),
	}
	for i := 0; i < n; i++ {
		if t := e.insnRegType[i]; t != 0 {
			snap.InsnRegType = append(snap.InsnRegType, PrefixInsnType{Insn: int32(i), T: t})
		}
		if e.rcSet[i] {
			snap.RangeChecks = append(snap.RangeChecks, e.rangeChecks[i])
		}
		if e.aluScalarPath[i] {
			snap.AluScalarPath = append(snap.AluScalarPath, int32(i))
		}
		if e.probeMem[i] {
			snap.ProbeMem = append(snap.ProbeMem, int32(i))
		}
	}
	return snap
}

// applyPrefixSnapshot restores snap into e and returns the boundary state
// to seed the worklist with. ok == false means a map FD could not be
// rebound; the caller re-simulates the prefix from scratch. All rebinds
// are resolved before e is mutated, so a failed application leaves the
// env untouched.
func (e *env) applyPrefixSnapshot(snap *PrefixSnapshot) (*State, bool) {
	resolved := make([]*maps.Map, len(snap.UsedMapFDs))
	for i, fd := range snap.UsedMapFDs {
		m := e.cfg.mapByFD(fd)
		if m == nil {
			return nil, false
		}
		resolved[i] = m
	}
	// Deep-clone through the env pools; the snapshot's own state is shared
	// across verifications and must never be mutated.
	st := e.cloneState(snap.State)
	if !e.rebindState(st) {
		e.releaseState(st)
		return nil, false
	}
	// Point of no return: e is only mutated below.
	e.insnProcessed = snap.InsnProcessed
	e.idCounter = snap.IDCounter
	e.refCounter = snap.RefCounter
	for _, it := range snap.InsnRegType {
		e.insnRegType[it.Insn] = it.T
	}
	for _, rc := range snap.RangeChecks {
		e.rangeChecks[rc.InsnIdx] = rc
		e.rcSet[rc.InsnIdx] = true
	}
	for _, i := range snap.AluScalarPath {
		e.aluScalarPath[i] = true
	}
	for _, i := range snap.ProbeMem {
		e.probeMem[i] = true
	}
	for _, m := range resolved {
		e.noteMap(m)
	}
	e.lcov.AddSites(snap.Cov)
	return st, true
}

// rebindState rebinds every map reference in st (registers and spilled
// stack slots, all frames) to the current kernel's maps.
func (e *env) rebindState(st *State) bool {
	for _, f := range st.Frames {
		for r := range f.Regs {
			if !e.rebindReg(&f.Regs[r]) {
				return false
			}
		}
		for s := range f.Stack {
			if f.Stack[s].Kind == SlotSpill {
				if !e.rebindReg(&f.Stack[s].Spill) {
					return false
				}
			}
		}
	}
	return true
}

// rebindReg swaps a register's map reference for the current kernel's map
// with the same FD. Map pointer identity matters downstream (pruning and
// the used-maps set compare maps by pointer), so a snapshot's stale
// pointers must never leak into a resumed verification.
func (e *env) rebindReg(reg *RegState) bool {
	if reg.Map == nil {
		return true
	}
	m := e.cfg.mapByFD(reg.Map.FD)
	if m == nil {
		return false
	}
	reg.Map = m
	return true
}

// exportCov captures the local coverage recorder into *dst. It is
// registered as a deferred call after the FlushTo defer, so it runs first
// (LIFO) — while the recorder still holds the run's profile.
func (e *env) exportCov(dst *[]coverage.SiteCount) {
	*dst = e.lcov.Export()
}

// prefixPrepass runs the verdict-cache incremental path: find the linear
// prefix, resume from a memoized boundary snapshot when one matches,
// otherwise simulate the prefix once and publish the snapshot. It returns
// the state to seed the worklist with.
//
// Capture is gated on recurrence: the first sighting of a prefix
// fingerprint only notes it (a streamed hash, no allocation) and lets the
// normal worklist exploration run the prefix — runTrace and runPath share
// step, so the two routes are bit-identical. Only a prefix seen a second
// time pays for canonical bytes, the boundary simulation, and the deep
// state clone the snapshot retains. One-shot prefixes — the overwhelming
// majority under a mutating generator — thus cost the cache nothing.
func (e *env) prefixPrepass(st *State) (*State, error) {
	n := e.tracePrefix()
	if n < minPrefixInsns {
		return st, nil
	}
	fp := traceFingerprint(e.prog, n)
	if !e.cfg.Cache.NotePrefix(fp) {
		return st, nil
	}
	canon := canonicalTraceBytes(e.prog, n)
	if snap := e.cfg.Cache.LookupPrefix(fp, canon); snap != nil {
		if rst, ok := e.applyPrefixSnapshot(snap); ok {
			e.releaseState(st)
			return rst, nil
		}
	}
	if err := e.runTrace(st, n); err != nil {
		e.releaseState(st)
		return nil, err
	}
	e.cfg.Cache.InsertPrefix(fp, e.capturePrefix(st, canon, n))
	return st, nil
}
