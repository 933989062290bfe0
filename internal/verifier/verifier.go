package verifier

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/coverage"
	"repro/internal/faultinject"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/maps"
)

// Errno values surfaced by rejections, so campaigns can build the
// EACCES/EINVAL histogram from §6.3.
const (
	EPERM  = 1
	E2BIG  = 7
	EACCES = 13
	EINVAL = 22
)

// Error is a verifier rejection: the instruction it happened at, a
// kernel-style message, and the errno the bpf() syscall would return.
type Error struct {
	Insn int
	// Msg is the rendered message. Rejections constructed by env.reject
	// leave it empty and carry the format string and arguments instead;
	// Message renders (and caches) it on first read, so programs rejected
	// deep inside a campaign loop never pay the fmt.Sprintf unless
	// something actually inspects the message.
	Msg   string
	Errno int

	format string
	args   []interface{}
	// reason is the message's first word, computed by env.reject for the
	// coverage site without rendering the message.
	reason string
}

// Reason returns the first space-delimited word of the rejection
// message, the key campaigns count rejections by. Rejections built by
// env.reject answer without rendering the message; errors constructed
// with Msg fall back to the rendered text.
func (e *Error) Reason() string {
	if e.reason == "" {
		return firstWord(e.Message())
	}
	return e.reason
}

// Message renders the rejection message, lazily on first call.
func (e *Error) Message() string {
	if e.Msg == "" && e.format != "" {
		e.Msg = fmt.Sprintf(e.format, e.args...)
	}
	return e.Msg
}

func (e *Error) Error() string {
	return fmt.Sprintf("verifier: insn %d: %s (errno %d)", e.Insn, e.Message(), e.Errno)
}

// Config parameterizes one verification.
type Config struct {
	// Bugs arms the seeded correctness-bug knobs.
	Bugs bugs.Set
	// Helpers is the kernel's helper table.
	Helpers *helpers.Registry
	// BTF is the kernel type registry.
	BTF *btf.Registry
	// MapByFD resolves map file descriptors in LD_IMM64 pseudo insns.
	MapByFD func(fd int32) *maps.Map
	// BTFVarAddr resolves a pseudo BTF-id load to the kernel variable's
	// address during fixup.
	BTFVarAddr func(id int32) uint64
	// Cov, when non-nil, records branch coverage of the verifier.
	Cov *coverage.Map
	// MaxInsnProcessed bounds the total simulated instructions
	// (kernel: 1M; scaled down for fuzzing throughput); 0 selects
	// defaultMaxInsnProcessed.
	MaxInsnProcessed int
	// DisableKfuncs rejects kernel-function calls, modeling kernels
	// predating kfunc support (v5.15).
	DisableKfuncs bool
	// Timeout, when positive, bounds the wall-clock time of one Verify
	// call; exceeding it aborts the exploration with a *TimeoutError.
	// This is the campaign watchdog against worklist explosions that the
	// instruction budget alone does not catch (a single pathological
	// state can be slow without processing many instructions).
	Timeout time.Duration
	// RecordStates snapshots the joined per-instruction abstract register
	// state into Result.States for the differential soundness oracle.
	// Off by default: recording clears the claim kinds of every
	// instruction (a fresh table unless States supplies one) and, at
	// every simulated instruction, joins each register whose claim is not
	// yet ClaimSkip, which the pooled zero-alloc hot path must not pay
	// for. Recording never changes the verification itself: the verdict,
	// Result.Prog, Result.RangeChecks and Result.InsnProcessed are the
	// same with it off (FuzzVerifyRecordStatesNoPanic checks this), so a
	// load that reads no claims can skip it.
	RecordStates bool
	// States, when non-nil, is the claim table RecordStates records into
	// instead of allocating one per call. Once the program passes the
	// structural checks, Verify resets the table for it, so the table
	// holds only the latest verification's claims, and returns it as
	// Result.States. Its planes grow only for a program longer than any
	// it held before, to that program's length. Ignored without
	// RecordStates.
	States *StateTable
	// Cache, when non-nil, memoizes whole-program verdicts across Verify
	// calls (see cache.go). It is consulted only when the run is
	// cacheable: RecordStates off (the oracle must never see replayed
	// claims), coverage on.
	Cache Cache
	// CacheNanos, when non-nil, accumulates the wall-clock nanoseconds
	// Verify spends in the cache layer (fingerprinting, lookup, hit
	// materialization, entry construction and insert) as opposed to
	// actual verification. Campaigns subtract it from the "verify" stage
	// clock and book it as the "cache" stage, so stage shares separate
	// verification work from memoization bookkeeping. Written from the
	// Verify goroutine only.
	CacheNanos *int64
}

// TimeoutError reports that a verification exceeded its wall-clock
// watchdog deadline. It is a harness resource limit, not a verifier
// verdict: kernel.Classify treats it as no anomaly, and campaigns skip
// and count the program instead of hanging the shard.
type TimeoutError struct {
	Timeout       time.Duration
	InsnProcessed int
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("verifier: watchdog: verification exceeded %v (%d insns processed)",
		e.Timeout, e.InsnProcessed)
}

// RangeCheck records the verifier's belief about a scalar register at a
// pointer-arithmetic site. The sanitizer turns each into a runtime
// assertion: if the actual value escapes [SMin,SMax]/[0,UMax], the range
// analysis was wrong — the alu_limit mechanism from §4.2.
type RangeCheck struct {
	// InsnIdx is the decoded instruction index in the verified program.
	InsnIdx int
	// Reg is the scalar operand register.
	Reg uint8
	// The believed bounds.
	SMin int64
	SMax int64
	UMax uint64
}

// Result is a successful verification.
type Result struct {
	// Prog is the rewritten (fixed-up) program ready for execution.
	Prog *isa.Program
	// InsnProcessed counts simulated instructions, kernel-style.
	InsnProcessed int
	// PeakStates is the maximum size of the exploration worklist.
	PeakStates int
	// TotalStates counts explored branch states.
	TotalStates int
	// RangeChecks drive the sanitizer's alu_limit assertions.
	RangeChecks []RangeCheck
	// R0Bounds is the union of the verifier's beliefs about the return
	// value across every explored exit path. A sound verifier implies
	// every runtime return value falls inside it.
	R0Bounds ReturnBounds
	// States is the per-instruction joined abstract register claim table
	// (Config.RecordStates only; nil otherwise). Indices refer to the
	// *original* program's instructions; fixup preserves them. When
	// Config.States supplied the table, this is that table: the next
	// Verify into it overwrites these claims.
	States *StateTable
	// Deprecated: CacheFP is never set. It keyed the kernel's sanitizer
	// memo, which is gone; it stays only because perfbench/mirror.go's
	// copy of that memo still reads it.
	CacheFP uint64
	// Deprecated: CacheCanon is never set, for the same reason as
	// CacheFP.
	CacheCanon []byte
}

// ReturnBounds is the exit-value belief union.
type ReturnBounds struct {
	SMin int64
	SMax int64
	UMin uint64
	UMax uint64
	// Valid is false when no exit path was recorded.
	Valid bool
}

// Contains reports whether v satisfies the recorded bounds.
func (b ReturnBounds) Contains(v uint64) bool {
	if !b.Valid {
		return true
	}
	return int64(v) >= b.SMin && int64(v) <= b.SMax && v >= b.UMin && v <= b.UMax
}

// widen folds one exit path's R0 belief into the union.
func (b *ReturnBounds) widen(r *RegState) {
	if !b.Valid {
		b.SMin, b.SMax, b.UMin, b.UMax = r.SMin, r.SMax, r.UMin, r.UMax
		b.Valid = true
		return
	}
	if r.SMin < b.SMin {
		b.SMin = r.SMin
	}
	if r.SMax > b.SMax {
		b.SMax = r.SMax
	}
	if r.UMin < b.UMin {
		b.UMin = r.UMin
	}
	if r.UMax > b.UMax {
		b.UMax = r.UMax
	}
}

// env is the per-verification mutable context. Envs are pooled (pool.go):
// the slice-indexed scratch tables below replace what used to be seven
// per-verification map allocations, and getEnv resizes/clears them against
// the incoming program so the steady state of a campaign allocates nothing
// on the verification setup path.
type env struct {
	cfg    *Config
	prog   *isa.Program
	slotOf []int32 // decoded index -> encoded slot
	// idxOf maps an encoded slot to its decoded index + 1; 0 marks the
	// second half of an LD_IMM64 (not a valid jump target).
	idxOf []int32

	// deadline is the wall-clock watchdog cutoff (zero = unbounded), and
	// maxInsns the instruction budget: Config.MaxInsnProcessed, or
	// defaultMaxInsnProcessed when that is 0.
	deadline time.Time
	maxInsns int

	insnProcessed int
	totalStates   int
	peakStates    int
	idCounter     uint32
	refCounter    uint32

	// visited states per insn index, for pruning.
	visited [][]snapshot
	// worklist is the path-exploration stack. Env-owned so the states
	// still queued when a rejection aborts exploration go back to the
	// pools (teardown drains it) instead of being abandoned.
	worklist []*State
	// snapCounter issues snapshot ids for cycle detection.
	snapCounter uint64
	// insnRegType records the pointer type used at each memory insn to
	// detect paths disagreeing about an access (kernel rejects those)
	// and to drive the probe-mem conversion. Encoded as RegType + 1;
	// 0 means "no access recorded yet".
	insnRegType []int32

	// rangeChecks accumulates per-insn alu_limit beliefs; rcSet marks
	// which entries are live.
	rangeChecks []RangeCheck
	rcSet       []bool
	r0Bounds    ReturnBounds
	// states is the oracle claim table (Config.RecordStates only).
	states *StateTable
	// aluScalarPath marks ALU insns some path executed with two scalar
	// operands, which disables that insn's alu_limit assertion.
	aluScalarPath []bool
	// probeMem marks the loads fixup converts to probe reads (checked
	// through PTR_TO_BTF_ID).
	probeMem []bool
	// usedMaps lists every map the program references, in first-use
	// order; RegState.MapIdx indexes it. It is pooled, and teardown
	// clears the entries. Membership is a linear scan (programs
	// reference a handful of maps).
	usedMaps []*maps.Map

	// lcov is the per-verification coverage recorder (nil when coverage is
	// off). It is unsynchronized; Verify flushes it into cfg.Cov exactly
	// once, on every return path, so the shared map's lock is taken once
	// per verification instead of once per instrumented site. localCov is
	// the pooled backing recorder: FlushTo clears it, so it is reusable
	// across verifications.
	lcov     *coverage.Local
	localCov *coverage.Local

	// statePool / framePool recycle exploration states; see pool.go.
	statePool []*State
	framePool []*FuncState
}

func (e *env) newID() uint32 { e.idCounter++; return e.idCounter }

// watchdog is the wall-clock deadline check, visited once per worklist
// state and every 256 processed instructions. The faultinject point lets
// tests stall a verification deterministically to prove the watchdog
// trips; the time check runs after the fault point so an injected delay
// is observed by the very check that follows it.
func (e *env) watchdog() error {
	faultinject.Fire("verifier.verify")
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		return &TimeoutError{Timeout: e.cfg.Timeout, InsnProcessed: e.insnProcessed}
	}
	return nil
}

func (e *env) reject(insn int, errno int, format string, args ...interface{}) error {
	word := rejectWord(format, args)
	e.cov("reject:", word)
	return &Error{Insn: insn, Errno: errno, format: format, args: args, reason: word}
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}

// rejectWord computes firstWord(fmt.Sprintf(format, args...)) without
// rendering the whole message: only the first space-delimited token of the
// format is formatted, and only when it contains verbs. The reject
// coverage site therefore stays identical to the eager implementation
// while the full message rendering is deferred to Error.Message.
func rejectWord(format string, args []interface{}) string {
	w := firstWord(format)
	n := countVerbs(w)
	if n == 0 {
		return w
	}
	if n > len(args) {
		n = len(args)
	}
	return firstWord(fmt.Sprintf(w, args[:n]...))
}

// countVerbs counts formatting verbs in s ("%%" is a literal percent).
func countVerbs(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			continue
		}
		if i+1 < len(s) && s[i+1] == '%' {
			i++
			continue
		}
		n++
	}
	return n
}

// jumpTarget converts a decoded insn index plus a slot-relative offset to
// the target decoded index, or -1 if invalid.
func (e *env) jumpTarget(i int, off int32) int {
	tgt := int(e.slotOf[i]) + widthOf(e.prog.Insns[i]) + int(off)
	if tgt < 0 || tgt >= len(e.idxOf) {
		return -1
	}
	return int(e.idxOf[tgt]) - 1
}

func widthOf(ins isa.Instruction) int {
	if ins.IsWide() {
		return 2
	}
	return 1
}

// Verify checks prog under cfg. On success it returns the fixed-up
// program plus sanitizer metadata; on rejection it returns a *Error.
//
// With a cacheable Config.Cache, Verify first consults the verdict cache;
// a hit replays the memoized outcome (verdict, counters, coverage site
// set) without exploring, and a miss verifies from scratch and
// memoizes. Timeouts are never memoized.
func Verify(prog *isa.Program, cfg *Config) (*Result, error) {
	if !cacheable(cfg) {
		return verify(prog, cfg, nil)
	}
	t0 := time.Now()
	fp := ProgramFingerprint(prog)
	if v := cfg.Cache.Lookup(fp, prog); v != nil {
		if res, err, ok := v.materialize(prog, cfg); ok {
			addCacheNanos(cfg, time.Since(t0))
			return res, err
		}
	}
	cacheSpent := time.Since(t0)
	var capture []coverage.Site
	res, err := verify(prog, cfg, &capture)
	t1 := time.Now()
	if v := newCachedVerdict(CanonicalProgramBytes(prog), res, err, capture); v != nil {
		cfg.Cache.Insert(fp, v)
	}
	addCacheNanos(cfg, cacheSpent+time.Since(t1))
	return res, err
}

// addCacheNanos books cache-layer wall clock into Config.CacheNanos.
func addCacheNanos(cfg *Config, d time.Duration) {
	if cfg.CacheNanos != nil {
		*cfg.CacheNanos += int64(d)
	}
}

// maxStatesPerInsn bounds remembered prune states per instruction.
const maxStatesPerInsn = 16

// defaultMaxInsnProcessed is the instruction budget of a Config that
// sets none.
const defaultMaxInsnProcessed = 100000

// verify is the scratch verification path. capture, when non-nil, marks a
// cache-miss run: the final coverage site set is exported into it for the
// verdict-cache entry.
func verify(prog *isa.Program, cfg *Config, capture *[]coverage.Site) (*Result, error) {
	e := getEnv(prog, cfg)
	defer e.teardown()
	if cfg.Cov != nil {
		// One flush — one lock acquisition on the shared map — per
		// verification, on every return path including rejections and
		// watchdog timeouts. (teardown is registered first and so runs
		// after the flush has emptied the pooled recorder.)
		defer e.lcov.FlushTo(cfg.Cov)
		if capture != nil {
			// LIFO: the export runs before the flush clears the recorder.
			defer e.exportCov(capture)
		}
	}
	if cfg.Timeout > 0 {
		e.deadline = time.Now().Add(cfg.Timeout)
	}

	// Structural checks first (the kernel's resolve_pseudo_ldimm64 /
	// check_cfg stage).
	if err := prog.Validate(isa.MaxInsns); err != nil {
		e.cov("reject:structural")
		return nil, &Error{Insn: 0, Msg: err.Error(), Errno: EINVAL}
	}
	if LayoutFor(prog.Type) == nil && prog.Type != isa.ProgTypeUnspec {
		return nil, e.reject(0, EINVAL, "unsupported program type %s", prog.Type)
	}
	if cfg.RecordStates {
		e.states = cfg.States
		if e.states == nil {
			e.states = new(StateTable)
		}
		e.states.reset(prog)
	}

	// The worklist lives on the env so rejection returns recycle every
	// still-queued state (teardown drains it); over half of fuzzed
	// programs are rejected, and abandoning their worklists starved the
	// state pools.
	e.worklist = append(e.worklist[:0], e.newInitialStatePooled())
	for len(e.worklist) > 0 {
		if err := e.watchdog(); err != nil {
			return nil, err
		}
		if len(e.worklist) > e.peakStates {
			e.peakStates = len(e.worklist)
		}
		st := e.worklist[len(e.worklist)-1]
		e.worklist = e.worklist[:len(e.worklist)-1]
		e.totalStates++
		s1, s2, err := e.runPath(st)
		if err != nil {
			// runPath's error paths never release st themselves.
			e.releaseState(st)
			return nil, err
		}
		if s1 != nil {
			e.worklist = append(e.worklist, s1)
		}
		if s2 != nil {
			e.worklist = append(e.worklist, s2)
		}
	}

	fixed, err := e.fixup()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Prog:          fixed,
		InsnProcessed: e.insnProcessed,
		PeakStates:    e.peakStates,
		TotalStates:   e.totalStates,
		R0Bounds:      e.r0Bounds,
		States:        e.states,
	}
	// rcSet is walked in instruction order, so RangeChecks comes out
	// sorted by InsnIdx — the deterministic order the sanitizer needs —
	// without a sort pass.
	for i, set := range e.rcSet {
		if set {
			res.RangeChecks = append(res.RangeChecks, e.rangeChecks[i])
		}
	}
	return res, nil
}

// runPath simulates instructions from st until the path ends (exit from
// the main frame) or branches. Up to two branch siblings are returned for
// the worklist (the taken clone, then the fall-through state), in push
// order — returning them as plain pointers keeps the per-branch path free
// of slice allocations.
func (e *env) runPath(st *State) (*State, *State, error) {
	for {
		i := st.Insn
		if i < 0 || i >= len(e.prog.Insns) {
			return nil, nil, e.reject(i, EINVAL, "jump out of range or fall-through past last insn")
		}
		done, sibling, err := e.step(st, i)
		if err != nil {
			return nil, nil, err
		}
		if done {
			// The path ended (main-frame exit or prune hit): recycle
			// its state. done paths never return a sibling aliasing st.
			e.releaseState(st)
			return nil, nil, nil
		}
		if sibling != nil {
			return sibling, st, nil
		}
	}
}

// step simulates instruction i on st: the instruction budget, the
// watchdog cadence, claim recording, and the class dispatch.
// Every class but JMP/JMP32 advances st to i+1; a jump-class instruction
// returns checkJmp's outcome (path ended, or a taken-branch sibling).
func (e *env) step(st *State, i int) (bool, *State, error) {
	e.insnProcessed++
	if e.insnProcessed > e.maxInsns {
		return false, nil, e.reject(i, E2BIG, "BPF program is too large: processed %d insn", e.insnProcessed)
	}
	if e.insnProcessed&255 == 0 {
		if err := e.watchdog(); err != nil {
			return false, nil, err
		}
	}
	ins := e.prog.Insns[i]
	if e.states != nil {
		// Claims are joined before the instruction is checked, matching
		// the runtime hook that fires before it executes.
		e.states.record(i, st.Cur())
	}

	var err error
	switch ins.Class() {
	case isa.ClassALU, isa.ClassALU64:
		err = e.checkALU(st, i, ins)
	case isa.ClassLD:
		err = e.checkLDImm(st, i, ins)
	case isa.ClassLDX:
		err = e.checkMemAccess(st, i, ins, false)
	case isa.ClassST, isa.ClassSTX:
		err = e.checkMemAccess(st, i, ins, true)
	case isa.ClassJMP, isa.ClassJMP32:
		return e.checkJmp(st, i, ins)
	}
	if err != nil {
		return false, nil, err
	}
	st.Insn = i + 1
	return false, nil, nil
}

// snapshot is one recorded exploration state used for pruning and cycle
// detection. fp is the structural fingerprint of state (fingerprint.go):
// candidates with a different fingerprint cannot be subsumed, so the deep
// compare is skipped for them.
type snapshot struct {
	id    uint64
	fp    uint64
	state *State
}

// errInfiniteLoop distinguishes a cycle hit from an ordinary prune.
var errInfiniteLoop = errors.New("infinite loop")

// pruneOrRecord consults the visited states at insn idx. It returns
// (true, nil) when the state is subsumed by a previously explored one
// (prune), (false, error) when the subsuming snapshot is an ancestor of
// this very path — i.e. the program looped back without making progress,
// the kernel's "infinite loop detected" — and otherwise records a snapshot
// and returns (false, nil).
func (e *env) pruneOrRecord(idx int, st *State) (bool, error) {
	fp := stateFingerprint(st)
	for _, old := range e.visited[idx] {
		// stateSubsumes(old, new) implies fp(old) == fp(new) (the
		// fingerprint folds only fields the deep compare requires to be
		// equal), so a mismatch can never skip a prunable pair.
		if old.fp != fp {
			continue
		}
		if stateSubsumes(old.state, st) {
			for _, anc := range st.Ancestry {
				if anc == old.id {
					e.covs(sitePruneLoop)
					return false, e.reject(idx, EINVAL, "infinite loop detected at insn %d", idx)
				}
			}
			e.covs(sitePruneHit)
			return true, nil
		}
	}
	if len(e.visited[idx]) < maxStatesPerInsn {
		e.snapCounter++
		snap := e.cloneState(st)
		snap.Insn = idx
		e.visited[idx] = append(e.visited[idx], snapshot{id: e.snapCounter, fp: fp, state: snap})
		st.Ancestry = append(st.Ancestry, e.snapCounter)
	}
	return false, nil
}

// recordInsnType notes the pointer type an access instruction was checked
// with; paths must agree, as in the kernel. The table stores RegType + 1
// so the zero value means "not yet accessed".
func (e *env) recordInsnType(i int, t RegType) error {
	if prev := e.insnRegType[i]; prev != 0 && RegType(prev-1) != t {
		return e.reject(i, EINVAL, "same insn cannot be used with different pointers (%s vs %s)", RegType(prev-1), t)
	}
	e.insnRegType[i] = int32(t) + 1
	return nil
}

// checkRegRead validates that reg is readable (initialized).
func (e *env) checkRegRead(st *State, i int, r uint8) error {
	if r >= isa.MaxReg {
		return e.reject(i, EINVAL, "R%d is invalid", r)
	}
	if st.Reg(r).Type == NotInit {
		e.cov("read_uninit")
		return e.reject(i, EACCES, "R%d !read_ok", r)
	}
	return nil
}

// checkRegWrite validates that reg is writable (not the frame pointer).
func (e *env) checkRegWrite(st *State, i int, r uint8) error {
	if r >= isa.MaxReg {
		return e.reject(i, EINVAL, "R%d is invalid", r)
	}
	if r == isa.R10 {
		e.cov("write_fp")
		return e.reject(i, EACCES, "frame pointer is read only")
	}
	return nil
}

// checkLDImm handles the LD class: the two-slot imm64 load and its pseudo
// variants, and rejects the legacy packet forms.
func (e *env) checkLDImm(st *State, i int, ins isa.Instruction) error {
	switch isa.Mode(ins.Opcode) {
	case isa.ModeIMM:
	case isa.ModeABS, isa.ModeIND:
		return e.reject(i, EINVAL, "legacy packet access is not supported")
	default:
		return e.reject(i, EINVAL, "invalid ld mode")
	}
	if err := e.checkRegWrite(st, i, ins.Dst); err != nil {
		return err
	}
	dst := st.Reg(ins.Dst)
	switch ins.Src {
	case 0:
		e.covs(siteLdImm64Const)
		*dst = constScalar(ins.Imm64)
	case isa.PseudoMapFD:
		e.cov("ld_imm64:map_fd")
		m := e.cfg.mapByFD(int32(ins.Imm64))
		if m == nil {
			return e.reject(i, EINVAL, "fd %d is not pointing to valid bpf_map", int32(ins.Imm64))
		}
		*dst = RegState{Type: ConstPtrToMap, MapIdx: e.noteMap(m)}
		dst.zeroVar()
	case isa.PseudoMapValue:
		e.cov("ld_imm64:map_value")
		m := e.cfg.mapByFD(int32(uint32(ins.Imm64)))
		if m == nil {
			return e.reject(i, EINVAL, "fd %d is not pointing to valid bpf_map", int32(uint32(ins.Imm64)))
		}
		off := int32(ins.Imm64 >> 32)
		if m.Type != maps.Array {
			return e.reject(i, EINVAL, "direct value access on %s map is not allowed", m.Type)
		}
		if off < 0 || uint32(off) >= m.ValueSize {
			return e.reject(i, EACCES, "direct value offset of %d is not allowed", off)
		}
		*dst = RegState{Type: PtrToMapValue, MapIdx: e.noteMap(m), Off: off}
		dst.zeroVar()
	case isa.PseudoBTFID:
		e.cov("ld_imm64:btf_id")
		id := btf.TypeID(int32(ins.Imm64))
		if e.cfg.BTF == nil || e.cfg.BTF.Struct(id) == nil {
			return e.reject(i, EINVAL, "ldimm64 unable to resolve btf id %d", id)
		}
		*dst = RegState{Type: PtrToBTFID, BTF: id}
		dst.zeroVar()
	case isa.PseudoFunc:
		return e.reject(i, EINVAL, "ldimm64 func pseudo is not supported")
	default:
		return e.reject(i, EINVAL, "invalid bpf_ld_imm64 insn")
	}
	return nil
}

// mapByFD resolves fd through MapByFD, nil when there is no resolver.
func (c *Config) mapByFD(fd int32) *maps.Map {
	if c.MapByFD == nil {
		return nil
	}
	return c.MapByFD(fd)
}

// noteMap adds m to the used-map list, once, and returns its index
// there, the RegState.MapIdx that names it.
func (e *env) noteMap(m *maps.Map) uint32 {
	for i, x := range e.usedMaps {
		if x == m {
			return uint32(i)
		}
	}
	e.usedMaps = append(e.usedMaps, m)
	return uint32(len(e.usedMaps) - 1)
}

// mapOf returns the map a ConstPtrToMap or PtrToMapValue register
// refers to.
func (e *env) mapOf(r *RegState) *maps.Map { return e.usedMaps[r.MapIdx] }
