// Package kernel is the facade over the simulated Linux eBPF subsystem:
// a bpf(2)-style interface (map creation, program load, attach, run, map
// dumping), kernel "version" configurations that arm historically
// appropriate bug knobs, the optional BVF sanitation patches, and the
// anomaly oracle that classifies runtime faults into the paper's two
// correctness-bug indicators.
package kernel

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/bugs"
	"repro/internal/coverage"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/lockdep"
	"repro/internal/maps"
	"repro/internal/oracle"
	"repro/internal/runtime"
	"repro/internal/sanitizer"
	"repro/internal/trace"
	"repro/internal/verifier"
)

// Version selects a simulated kernel release, which controls both the
// available features and the armed bug knobs (the three targets of the
// paper's §6.3 evaluation).
type Version int

// Kernel versions from the evaluation.
const (
	V515    Version = iota // Linux v5.15
	V61                    // Linux v6.1
	BPFNext                // the bpf-next development branch
)

func (v Version) String() string {
	switch v {
	case V515:
		return "v5.15"
	case V61:
		return "v6.1"
	case BPFNext:
		return "bpf-next"
	}
	return "unknown"
}

// AllVersions lists the evaluated kernels in paper order.
var AllVersions = []Version{V515, V61, BPFNext}

// ParseVersion maps a version name (Version.String) onto its Version.
// The error for an unknown name lists the valid ones.
func ParseVersion(s string) (Version, error) {
	names := make([]string, len(AllVersions))
	for i, v := range AllVersions {
		if v.String() == s {
			return v, nil
		}
		names[i] = v.String()
	}
	return 0, fmt.Errorf("kernel: unknown kernel version %q (valid: %s)", s, strings.Join(names, ", "))
}

// DefaultBugs returns the bug knobs armed on each version: old bugs exist
// on old kernels, the six new verifier correctness bugs live in bpf-next.
func (v Version) DefaultBugs() bugs.Set {
	switch v {
	case V515:
		return bugs.Of(bugs.CVE2022_23222, bugs.Bug4TracePrintk, bugs.Bug6SendSignal,
			bugs.Bug8Kmemdup, bugs.Bug9BucketIter)
	case V61:
		return bugs.Of(bugs.Bug4TracePrintk, bugs.Bug5Contention, bugs.Bug6SendSignal,
			bugs.Bug8Kmemdup, bugs.Bug9BucketIter, bugs.Bug10IrqWork)
	case BPFNext:
		return bugs.Of(bugs.Bug1NullnessProp, bugs.Bug2TaskAccess, bugs.Bug3KfuncBacktrack,
			bugs.Bug4TracePrintk, bugs.Bug5Contention, bugs.Bug6SendSignal,
			bugs.Bug7Dispatcher, bugs.Bug8Kmemdup, bugs.Bug9BucketIter,
			bugs.Bug10IrqWork, bugs.Bug11XDPDevProg)
	}
	return bugs.None()
}

// HasKfuncs reports whether the version supports kernel-function calls.
func (v Version) HasKfuncs() bool { return v != V515 }

// kmallocMax is the scaled-down kmalloc allocation limit the Bug #8 knob
// trips over when the rewritten program is duplicated to user space.
const kmallocMax = 512 * isa.InsnSize

// verifierBudget caps verification work per program, in simulated
// instructions.
const verifierBudget = 50000

// Config parameterizes a simulated kernel.
type Config struct {
	Version Version
	// Bugs overrides the version's default knob set when non-nil.
	Bugs bugs.Set
	// Sanitize enables the BVF kernel patches (memory sanitation and
	// alu_limit assertions on loaded programs).
	Sanitize bool
	// Cov collects verifier branch coverage (kcov) when non-nil.
	Cov *coverage.Map
	// VerifyTimeout, when positive, arms a wall-clock watchdog on each
	// verification (worklist explosions); a timed-out load returns
	// *verifier.TimeoutError.
	VerifyTimeout time.Duration
	// ExecTimeout, when positive, arms a wall-clock watchdog on each
	// program execution; a timed-out run carries *runtime.WatchdogError.
	ExecTimeout time.Duration
	// Oracle enables the differential abstract-state soundness checker:
	// LoadProgram records the per-instruction joined abstract state
	// (verifier.Config.RecordStates) into one claim table the kernel
	// reuses for every load, and every clean Run of the program holding
	// it is replayed once with internal/oracle's per-instruction hook
	// asserting the concrete registers against it. Off by default —
	// recording and the extra execution are not part of the zero-alloc
	// hot path.
	Oracle bool
	// Cache, when non-nil, memoizes verifier verdicts across LoadProgram
	// calls (and across kernel recycles — entries rebind map FDs on every
	// hit). Triage re-verification always bypasses it.
	Cache verifier.Cache
	// CacheNanos forwards verifier.Config.CacheNanos: cache-layer wall
	// clock accumulated separately so campaigns can book it as its own
	// pipeline stage.
	CacheNanos *int64
}

// Kernel is one simulated kernel instance.
type Kernel struct {
	Cfg Config
	M   *runtime.Machine

	progs  map[int32]*LoadedProg
	nextFD int32

	dispatcherProg    *LoadedProg
	dispatcherUpdates int

	// Bound method values for VerifierConfig, captured once — taking
	// k.M.MapByFD per call allocates a fresh closure each time.
	mapByFD    func(int32) *maps.Map
	btfVarAddr func(int32) uint64
	// vcfg is VerifierConfig's reusable result; every field is
	// reassigned on each call, so callers that tweak the returned
	// config (the triage re-verification loop) never see stale edits.
	// A kernel is single-goroutine, like the machine it wraps.
	vcfg verifier.Config

	// Oracle counters (Config.Oracle only): claims asserted, violations
	// found, and wall-clock nanoseconds spent in oracle replays. Campaigns
	// read these as per-iteration deltas for stats and stage timing.
	OracleChecks     int
	OracleViolations int
	OracleNanos      int64

	// claims is the oracle's claim table (Config.Oracle only). Every
	// LoadProgram verifies into it, so a campaign's verifications share
	// one buffer instead of allocating a table each. claimsHolder is the
	// loaded program whose Res.States it is; the next LoadProgram or
	// Reset takes it back.
	claims       *verifier.StateTable
	claimsHolder *LoadedProg
}

// LoadedProg is a successfully verified (and possibly sanitized) program.
type LoadedProg struct {
	FD int32
	// Orig is the program as submitted.
	Orig *isa.Program
	// Verified is the fixed-up program the verifier produced.
	Verified *isa.Program
	// Exec is the program actually executed: the sanitized rewrite when
	// sanitation is enabled, otherwise Verified.
	Exec *isa.Program
	// Res is the verification result.
	Res *verifier.Result
	// SanStats describes the instrumentation, when sanitation ran.
	SanStats *sanitizer.Stats
	// Offloaded marks XDP programs loaded for device offload.
	Offloaded bool
}

// New builds a kernel of the given version.
func New(cfg Config) *Kernel {
	if cfg.Bugs == nil {
		cfg.Bugs = cfg.Version.DefaultBugs()
	}
	k := &Kernel{
		Cfg:    cfg,
		M:      runtime.NewMachine(cfg.Bugs),
		progs:  make(map[int32]*LoadedProg),
		nextFD: 100,
	}
	if cfg.Oracle {
		k.claims = new(verifier.StateTable)
	}
	k.M.ResolveProg = func(fd int32) *isa.Program {
		if lp := k.progs[fd]; lp != nil {
			return lp.Exec
		}
		return nil
	}
	return k
}

// Reset restores the kernel to its freshly-constructed state — equivalent
// to New(k.Cfg) but reusing the machine's immutable registries and this
// kernel's identity (its ResolveProg closure stays valid) and, with
// Config.Oracle, its claim table and the capacity it has grown. Campaigns
// Reset their kernel at every recycle, and replay and minimization
// harnesses between candidate probes, instead of paying a full
// construction. A program loaded before Reset keeps no oracle claims.
func (k *Kernel) Reset() {
	k.M.Reset()
	k.releaseClaims()
	k.progs = make(map[int32]*LoadedProg)
	k.nextFD = 100
	k.dispatcherProg = nil
	k.dispatcherUpdates = 0
}

// SetProgArraySlot installs a loaded program into a prog-array map slot,
// the bpf(2) map-update path user space uses to set up tail calls.
func (k *Kernel) SetProgArraySlot(mapFD int32, idx uint32, progFD int32) error {
	m := k.M.MapByFD(mapFD)
	if m == nil || m.Type != maps.ProgArray {
		return errors.New("kernel: not a prog_array map")
	}
	if _, ok := k.progs[progFD]; !ok {
		return errors.New("kernel: bad prog fd")
	}
	return m.SetProg(idx, progFD)
}

// CreateMap creates a map and returns its fd.
func (k *Kernel) CreateMap(spec maps.Spec) (int32, error) {
	return k.M.CreateMap(spec)
}

// MapByFD resolves a map fd.
func (k *Kernel) MapByFD(fd int32) *maps.Map { return k.M.MapByFD(fd) }

// VerifierConfig assembles the verifier configuration for this kernel.
func (k *Kernel) VerifierConfig() *verifier.Config {
	if k.mapByFD == nil {
		k.mapByFD = k.M.MapByFD
		k.btfVarAddr = k.M.BTFVarAddr
	}
	k.vcfg = verifier.Config{
		Bugs:             k.Cfg.Bugs,
		Helpers:          k.M.Helpers,
		BTF:              k.M.BTF,
		MapByFD:          k.mapByFD,
		BTFVarAddr:       k.btfVarAddr,
		Cov:              k.Cfg.Cov,
		MaxInsnProcessed: verifierBudget,
		DisableKfuncs:    !k.Cfg.Version.HasKfuncs(),
		Timeout:          k.Cfg.VerifyTimeout,
		RecordStates:     k.Cfg.Oracle,
		Cache:            k.Cfg.Cache,
		CacheNanos:       k.Cfg.CacheNanos,
	}
	return &k.vcfg
}

// SyscallBugError models Bug #8: the bpf(2) syscall fails with a kernel
// warning when duplicating an over-large rewritten program with kmemdup.
type SyscallBugError struct {
	Size int
}

func (e *SyscallBugError) Error() string {
	return fmt.Sprintf("WARNING: kmemdup of %d bytes exceeds kmalloc limit (bpf_prog_get_info_by_fd)", e.Size)
}

// LoadProgram verifies p and, when sanitation is enabled, instruments the
// result. On success the program is registered and ready to run. With
// Config.Oracle, p's claims go into the kernel's claim table, which the
// previously loaded program gives up (see Run).
func (k *Kernel) LoadProgram(p *isa.Program) (*LoadedProg, error) {
	cfg := k.VerifierConfig()
	if k.claims != nil {
		k.releaseClaims()
		cfg.States = k.claims
	}
	res, err := verifier.Verify(p, cfg)
	if err != nil {
		return nil, err
	}
	lp := &LoadedProg{Orig: p, Verified: res.Prog, Exec: res.Prog, Res: res}
	if k.Cfg.Sanitize {
		san, stats, serr := sanitizer.Instrument(res.Prog, res.RangeChecks)
		if serr != nil {
			return nil, serr
		}
		lp.Exec = san
		lp.SanStats = stats
	}
	// Bug #8: the syscall duplicates the rewritten instructions back to
	// user space with kmemdup, which fails for large programs.
	if k.Cfg.Bugs.Has(bugs.Bug8Kmemdup) && lp.Exec.Slots()*isa.InsnSize > kmallocMax {
		return nil, &SyscallBugError{Size: lp.Exec.Slots() * isa.InsnSize}
	}
	lp.FD = k.nextFD
	k.nextFD++
	k.progs[lp.FD] = lp
	if res.States != nil {
		k.claimsHolder = lp
	}
	return lp, nil
}

// releaseClaims takes the claim table back from the program holding it,
// whose Run then does no oracle replay.
func (k *Kernel) releaseClaims() {
	if h := k.claimsHolder; h != nil {
		h.Res.States = nil
		k.claimsHolder = nil
	}
}

// Run executes a loaded program once. Programs with an AttachTo hook are
// attached to the tracepoint, fired, and detached; others run directly.
// The returned outcome's Err carries any fault. With Config.Oracle, a
// clean run is followed by one oracle-hooked replay of the verified
// (uninstrumented) program — the sanitizer shifts instruction indices,
// the state table's indices refer to the verified program — and a
// soundness violation replaces the outcome's Err. A program keeps its
// claims only until the next LoadProgram (or Reset) on its kernel; after
// that Run executes it without the replay.
func (k *Kernel) Run(lp *LoadedProg) *runtime.ExecOutcome {
	out := k.runOnce(lp)
	if !k.Cfg.Oracle || out.Err != nil || lp.Res == nil || lp.Res.States == nil {
		return out
	}
	start := time.Now()
	k.M.Lockdep.Reset()
	x := k.newExec(lp.Verified)
	ores := oracle.Run(x, lp.Res.States)
	x.Release()
	k.OracleChecks += ores.Checks
	k.OracleNanos += time.Since(start).Nanoseconds()
	if ores.Violation != nil {
		k.OracleViolations++
		// Keep the primary run's R0/steps; only the verdict changes.
		out = &runtime.ExecOutcome{R0: out.R0, Steps: out.Steps, Err: ores.Violation}
	}
	// Non-violation faults in the replay (e.g. a watchdog trip) are
	// ignored: the primary run is the verdict of record.
	return out
}

// newExec prepares an execution of p under the kernel's watchdog. Every
// caller releases it once it has run.
func (k *Kernel) newExec(p *isa.Program) *runtime.Exec {
	x := runtime.NewExec(k.M, p)
	if k.Cfg.ExecTimeout > 0 {
		x.SetWatchdog(k.Cfg.ExecTimeout)
	}
	return x
}

func (k *Kernel) runOnce(lp *LoadedProg) *runtime.ExecOutcome {
	k.M.Lockdep.Reset()
	if tp := lp.Exec.AttachTo; tp != "" && k.M.Trace.Exists(tp) {
		var last *runtime.ExecOutcome
		handler := func(depth int) error {
			x := k.newExec(lp.Exec)
			out := x.Run()
			x.Release()
			last = out
			return out.Err
		}
		if err := k.M.Trace.Attach(tp, handler); err != nil {
			return &runtime.ExecOutcome{Err: err}
		}
		defer k.M.Trace.Detach(tp)
		if err := k.M.Trace.Fire(tp); err != nil {
			return &runtime.ExecOutcome{Err: err}
		}
		if last == nil {
			last = &runtime.ExecOutcome{}
		}
		return last
	}
	x := k.newExec(lp.Exec)
	out := x.Run()
	x.Release()
	if out.Err == nil {
		if viol := k.M.Lockdep.ExitContext("cpu0"); viol != nil {
			out.Err = viol
		}
	}
	// Bug #11: device-offloaded XDP programs must never execute on the
	// host; the missing environment check lets them.
	if out.Err == nil && lp.Offloaded && lp.Exec.Type == isa.ProgTypeXDP &&
		k.Cfg.Bugs.Has(bugs.Bug11XDPDevProg) {
		out.Err = &XDPEnvError{}
	}
	return out
}

// XDPEnvError models Bug #11: a device program executed in the host
// environment dereferences device-only state.
type XDPEnvError struct{}

func (e *XDPEnvError) Error() string {
	return "BUG: device-offloaded XDP program executed on host (missing execution environment check)"
}

// DumpMap walks a map as the map-dump syscalls do (map_get_next_key +
// lookup). With Bug #9 armed the hash walk reads past the bucket on the
// lock-failure path, which KASAN reports.
func (k *Kernel) DumpMap(fd int32) (int, error) {
	m := k.M.MapByFD(fd)
	if m == nil {
		return 0, errors.New("kernel: bad map fd")
	}
	n := 0
	err := m.Iterate(func(key []byte, valueAddr uint64) bool {
		n++
		return true
	})
	return n, err
}

// UpdateDispatcher installs a program into the XDP dispatcher slot.
// With Bug #7 armed, the update lacks synchronization with execution.
func (k *Kernel) UpdateDispatcher(lp *LoadedProg) {
	k.dispatcherProg = lp
	k.dispatcherUpdates++
}

// RunDispatcher executes the dispatcher. With Bug #7 armed, an execution
// racing a recent update dereferences the torn slot.
func (k *Kernel) RunDispatcher() *runtime.ExecOutcome {
	if k.Cfg.Bugs.Has(bugs.Bug7Dispatcher) && k.dispatcherUpdates > 0 && k.dispatcherUpdates%3 == 0 {
		// The torn window: the old program pointer was freed but the
		// slot not yet republished.
		k.dispatcherUpdates++
		return &runtime.ExecOutcome{Err: &kmem.Report{
			Kind: kmem.ReportNull, Addr: 16, Size: 8, Tag: "bpf_dispatcher",
		}}
	}
	if k.dispatcherProg == nil {
		return &runtime.ExecOutcome{}
	}
	return k.Run(k.dispatcherProg)
}

// Indicator identifies which of the paper's two oracle indicators an
// anomaly corresponds to.
type Indicator int

// Indicators.
const (
	IndicatorNone Indicator = 0
	// Indicator1 is an invalid load/store performed by the program
	// itself (§3.1).
	Indicator1 Indicator = 1
	// Indicator2 is a fault inside a kernel routine the program invoked
	// (§3.2).
	Indicator2 Indicator = 2
	// IndicatorSoundness is a differential abstract-state violation: a
	// concrete register value escaped the verifier's joined claim during
	// an oracle replay (this repository's extension — the analysis itself
	// was unsound, whether or not a bad access followed this run).
	IndicatorSoundness Indicator = 3
)

func (i Indicator) String() string {
	switch i {
	case Indicator1:
		return "indicator1"
	case Indicator2:
		return "indicator2"
	case IndicatorSoundness:
		return "indicator3"
	}
	return "indicator0"
}

// Anomaly is one oracle hit: a runtime fault of a verified program.
type Anomaly struct {
	Kind      string
	Indicator Indicator
	Err       error
	// Attributed is the seeded bug this anomaly maps back to (0 when
	// unattributed).
	Attributed bugs.ID
}

func (a *Anomaly) String() string {
	return fmt.Sprintf("[indicator%d %s] %v (bug: %v)", a.Indicator, a.Kind, a.Err, a.Attributed)
}

// Classify maps a runtime fault to an anomaly. Faults that are resource
// limits rather than bugs return nil. It tests err and then each error
// err wraps (errors.Unwrap), and the first of a known type decides; the
// anomaly's Err is err itself. No load or run error is joined (an
// Unwrap() []error: the kernel, verifier and runtime never build one),
// so the walk follows single wrapping only.
// A type switch keeps the walk allocation-free, where each As probe of
// the errors package would move its target to the heap.
func Classify(err error) *Anomaly {
	for e := err; e != nil; e = errors.Unwrap(e) {
		switch f := e.(type) {
		case *verifier.Error, *runtime.StepLimitError:
			return nil
		// Watchdog timeouts are harness resource limits, not kernel bugs:
		// the campaign counts and skips the program instead of reporting it.
		case *verifier.TimeoutError, *runtime.WatchdogError:
			return nil
		case *kmem.Report:
			return &Anomaly{Kind: "kasan:" + f.Kind.String(), Indicator: Indicator1, Err: err}
		case *kmem.FaultError:
			return &Anomaly{Kind: "kernel-oops", Indicator: Indicator1, Err: err}
		case *runtime.RangeViolationError:
			return &Anomaly{Kind: "alu-limit-violation", Indicator: Indicator1, Err: err}
		case *oracle.Violation:
			return &Anomaly{Kind: "soundness:" + f.Check, Indicator: IndicatorSoundness, Err: err}
		case *lockdep.Violation:
			return &Anomaly{Kind: "lockdep:" + f.Kind.String(), Indicator: Indicator2, Err: err}
		case *trace.RecursionError:
			return &Anomaly{Kind: "trace-recursion", Indicator: Indicator2, Err: err}
		case *helpers.PanicError:
			return &Anomaly{Kind: "kernel-panic", Indicator: Indicator2, Err: err}
		case *SyscallBugError:
			return &Anomaly{Kind: "syscall-warning", Indicator: IndicatorNone, Err: err}
		case *XDPEnvError:
			return &Anomaly{Kind: "xdp-env", Indicator: IndicatorNone, Err: err}
		}
	}
	return nil
}

// RaisedOnlyAtLoad reports whether Triage attributes id only to an error
// LoadProgram returns, never to a run of a loaded program. Bug #8 is the
// one such bug: LoadProgram alone raises its SyscallBugError, and Triage
// attributes it from the syscall-warning kind alone. So a program that
// loads cannot reproduce it, whatever its runs do.
func RaisedOnlyAtLoad(id bugs.ID) bool { return id == bugs.Bug8Kmemdup }

// Triage attributes an anomaly on an accepted program to a seeded bug:
// for verifier bugs it re-verifies the program with each armed knob
// individually disabled — if disabling knob X makes the verifier reject
// the program, X admitted it. Runtime-side bugs are attributed by their
// anomaly signature. This automates the paper's manual triage step.
func (k *Kernel) Triage(a *Anomaly, prog *isa.Program) bugs.ID {
	if a == nil {
		return 0
	}
	// Signature-attributed runtime bugs.
	switch {
	case a.Kind == "syscall-warning":
		return bugs.Bug8Kmemdup
	case a.Kind == "xdp-env":
		return bugs.Bug11XDPDevProg
	}
	// One walk of the wrap chain, the way Classify walks it, keeps the
	// first error of each type the signatures below test: what an As
	// probe of the errors package would find, with no probe target moved
	// to the heap.
	var (
		pan *helpers.PanicError
		lv  *lockdep.Violation
		rep *kmem.Report
		// diverged: a range or soundness violation is in the chain.
		diverged bool
	)
	for e := a.Err; e != nil; e = errors.Unwrap(e) {
		switch f := e.(type) {
		case *helpers.PanicError:
			if pan == nil {
				pan = f
			}
		case *lockdep.Violation:
			if lv == nil {
				lv = f
			}
		case *runtime.RangeViolationError, *oracle.Violation:
			diverged = true
		case *kmem.Report:
			if rep == nil {
				rep = f
			}
		}
	}
	// A send-signal panic identifies Bug #6 directly. Signature-based
	// attribution matters here because knob-removal re-verification can
	// be defeated by knob interactions: with Bug #3 also armed, the
	// collapsed range analysis may make the signal call site dead code
	// under every single-knob-weakened verifier.
	if pan != nil && k.Cfg.Bugs.Has(bugs.Bug6SendSignal) {
		return bugs.Bug6SendSignal
	}
	if lv != nil && lv.Kind == lockdep.Inversion &&
		(lv.Lock.Name == "irq_work_lock" || lv.Against.Name == "irq_work_lock") {
		return bugs.Bug10IrqWork
	}
	// An alu_limit violation means the verifier's range belief diverged
	// from the runtime value, and an abstract-state soundness violation
	// is the same divergence caught one layer earlier. With Bug #3 armed
	// and a kfunc call in the program, the broken backtracking is the only
	// seeded source of such divergence — re-verification cannot attribute
	// it because both the buggy and fixed verifiers accept the program,
	// they merely record different beliefs.
	if diverged && prog != nil && k.Cfg.Bugs.Has(bugs.Bug3KfuncBacktrack) {
		for _, ins := range prog.Insns {
			if ins.IsKfuncCall() {
				return bugs.Bug3KfuncBacktrack
			}
		}
	}

	if prog != nil {
		// One copy of the knob set serves every re-verification: each
		// deletes its knob and puts it back after, so every verification
		// sees the full set less exactly one knob.
		var weakened bugs.Set
		for _, id := range bugs.AllIDs() {
			if !k.Cfg.Bugs.Has(id) {
				continue
			}
			if weakened == nil {
				weakened = k.Cfg.Bugs.Clone()
			}
			delete(weakened, id)
			cfg := k.VerifierConfig()
			cfg.Bugs = weakened
			cfg.Cov = nil
			// Only the verdict matters: recording claims would fill a
			// table nothing reads.
			cfg.RecordStates = false
			// Never consult the verdict cache here: its entries were
			// produced under the full bug set, and a weakened-knob
			// re-verification answering from the cache would misattribute
			// every finding. (Cov == nil also gates the cache off, but the
			// bypass must not depend on that coincidence.)
			cfg.Cache = nil
			_, err := verifier.Verify(prog, cfg)
			weakened[id] = true
			if err != nil {
				return id
			}
		}
	}

	// Remaining signatures.
	if rep != nil && rep.Kind == kmem.ReportNull && rep.Tag == "bpf_dispatcher" {
		return bugs.Bug7Dispatcher
	}
	if rep != nil && k.Cfg.Bugs.Has(bugs.Bug9BucketIter) {
		return bugs.Bug9BucketIter
	}
	return 0
}
