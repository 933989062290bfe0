package core

import (
	"time"

	"repro/internal/bugs"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// Reproducer minimization: the paper only reports bugs with *stable
// reproducers* (§6.1), and its triage works from the "guilty instruction"
// backwards (§6.5). Minimize automates the first step of that triage by
// shrinking a bug-triggering program while the same seeded bug keeps
// firing on a fresh kernel.

// Reproducer couples a bug id with a checker that rebuilds a pristine
// kernel and reports whether a candidate program still triggers the bug.
//
// Check must be a pure function of the program: MinimizeOpts does not
// re-check a candidate an earlier pass already rejected. NewReproducer's
// Check is one, because every call sees a pristine kernel and no
// watchdog.
type Reproducer struct {
	Bug bugs.ID
	// Check reports whether prog, loaded (and run, unless the bug is
	// raised at load) on a pristine kernel, triggers the same bug.
	Check func(prog *isa.Program) bool
}

// defaultMinimizeBudget is the total wall-clock deadline Minimize applies
// when the caller does not choose one. Each candidate removal re-verifies
// and re-executes the program, so an unbounded fixpoint over a
// pathological reproducer (deep worklists, slow helpers) could stall
// triage indefinitely; the budget turns that into a best-effort shrink.
const defaultMinimizeBudget = 30 * time.Second

// MinimizeOptions bounds one minimization run.
type MinimizeOptions struct {
	// MaxRounds caps full back-to-front passes; <=0 selects 4.
	MaxRounds int
	// Budget is the total wall-clock deadline: 0 selects
	// defaultMinimizeBudget (30s), negative disables the bound. On
	// expiry the best reproducer found so far is returned — still
	// bug-triggering, just possibly not minimal.
	Budget time.Duration
	// RoundBudget bounds each pass: an expired pass is abandoned and the
	// next one starts from the shrunken prefix. <=0 leaves passes
	// unbounded (the total Budget still applies).
	RoundBudget time.Duration
}

// Minimize removes instructions from prog while Check keeps succeeding,
// iterating to a fixpoint (bounded by maxRounds full passes and the
// default wall-clock budget). The result always still triggers: every
// removal is validated before being kept.
func Minimize(rep *Reproducer, prog *isa.Program, maxRounds int) *isa.Program {
	return MinimizeOpts(rep, prog, MinimizeOptions{MaxRounds: maxRounds})
}

// MinimizeOpts is Minimize with explicit round and wall-clock bounds.
//
// A pass walks back to front and keeps every removal Check accepts.
// When a pass walks down to index 0, the candidates below the lowest
// index it removed are isa.RemoveAt of the program it ends with, and
// Validate or Check rejected each of them. So until the next pass
// removes something, it stops at that index: Check is pure and would
// reject them again. A pass cut short by its round budget has not tried
// them, and the pass after it walks down to index 0.
func MinimizeOpts(rep *Reproducer, prog *isa.Program, o MinimizeOptions) *isa.Program {
	cur := prog.Clone()
	if o.MaxRounds <= 0 {
		o.MaxRounds = 4
	}
	budget := o.Budget
	if budget == 0 {
		budget = defaultMinimizeBudget
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	// rejected is the lowest index the previous full pass removed: every
	// candidate below it has been checked against cur and rejected.
	rejected := 0
	for round := 0; round < o.MaxRounds; round++ {
		// Lets tests inject a stall that trips the budgets deterministically.
		faultinject.Fire("core.minimize.round")
		var roundDeadline time.Time
		if o.RoundBudget > 0 {
			roundDeadline = time.Now().Add(o.RoundBudget)
		}
		lowest, cut := -1, false
		// Walk back to front so indices stay stable across removals.
		for i := len(cur.Insns) - 1; i >= 0; i-- {
			if lowest < 0 && i < rejected {
				break
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return cur
			}
			if !roundDeadline.IsZero() && !time.Now().Before(roundDeadline) {
				cut = true
				break
			}
			cand, err := isa.RemoveAt(cur, i)
			if err != nil || cand.Validate(isa.MaxInsns) != nil {
				continue
			}
			if rep.Check(cand) {
				cur = cand
				lowest = i
			}
		}
		if lowest < 0 {
			break
		}
		rejected = lowest
		if cut {
			rejected = 0
		}
	}
	return cur
}

// NewReplayKernel builds a pristine kernel with the standard resource
// pool and tail-call target installed — the environment reproducer checks
// and the triage gauntlet replay programs in. The returned handles mirror
// the pool a campaign iteration sees, in the same fd order. oracle must
// match the finding campaign's Oracle setting: soundness findings only
// reproduce under the oracle's hooked replay.
func NewReplayKernel(version kernel.Version, override bugs.Set, sanitize, oracle bool) (*kernel.Kernel, []MapHandle, error) {
	k := kernel.New(kernel.Config{Version: version, Bugs: override, Sanitize: sanitize, Oracle: oracle})
	pool, err := installPool(k, make([]MapHandle, 0, len(poolSpecs)))
	if err != nil {
		return nil, nil, err
	}
	return k, pool, nil
}

// NewReproducer builds a Reproducer for one seeded bug against the given
// kernel version with the standard resource pool. One kernel is built up
// front and, between Check calls, Reset and given its pool again by
// installPool — the same construction sequence (fresh memory domain,
// maps, fds, tail-call target) — so every probe still sees a pristine
// environment without paying a full kernel build per minimization
// candidate.
//
// A bug the kernel raises only at load (kernel.RaisedOnlyAtLoad) is
// decided by LoadProgram alone: a candidate that loads does not
// reproduce it, so Check runs nothing, and the kernel is built without
// the oracle, whose claims only Run's replay reads.
func NewReproducer(version kernel.Version, override bugs.Set, sanitize, oracle bool, bug bugs.ID) *Reproducer {
	atLoad := kernel.RaisedOnlyAtLoad(bug)
	k, pool, kerr := NewReplayKernel(version, override, sanitize, oracle && !atLoad)
	first := true
	return &Reproducer{
		Bug: bug,
		Check: func(prog *isa.Program) bool {
			if kerr != nil {
				return false
			}
			if !first {
				k.Reset()
				var err error
				if pool, err = installPool(k, pool[:0]); err != nil {
					return false
				}
			}
			first = false
			lp, err := k.LoadProgram(prog)
			if err != nil {
				// Load-time bugs (the kmemdup warning) classify from
				// the error itself.
				if a := kernel.Classify(err); a != nil {
					return k.Triage(a, prog) == bug
				}
				return false
			}
			if atLoad {
				return false
			}
			for run := 0; run < 2; run++ {
				out := k.Run(lp)
				if a := kernel.Classify(out.Err); a != nil {
					return k.Triage(a, prog) == bug
				}
			}
			return false
		},
	}
}
