package triage

import (
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// replayKernel builds the replay kernel for env, or nil when it cannot be
// built; replayOnce counts a replay on a nil kernel as reproducing
// nothing.
func replayKernel(env Env) *core.ReplayKernel {
	rk, err := core.NewReplayKernel(env.Version, env.Bugs, env.Sanitize, env.Oracle)
	if err != nil {
		return nil
	}
	return rk
}

// replayOnce re-runs a finding once on rk, the replay kernel of its
// environment, and reports what the oracle observed. A finding can
// manifest on several surfaces (direct execution, XDP offload, the XDP
// dispatcher, the map-dump syscalls); each surface runs on a pristine
// kernel so a fault on one cannot masquerade as another, and the first
// surface whose anomaly matches the expected signature wins. When no
// surface matches, the first anomaly seen (if any) is returned so the
// evidence records what actually happened instead of a bare "no".
//
// The "triage.replay" fault point models a nondeterministic oracle: an
// injected error turns this attempt into a non-reproduction, which is
// how the quarantine tests manufacture flakiness.
func replayOnce(rk *core.ReplayKernel, key core.BugKey, attempt int, prog *isa.Program) Report {
	if err := faultinject.FireErr("triage.replay"); err != nil {
		return Report{Attempt: attempt, Err: err.Error()}
	}
	if rk == nil {
		return Report{Attempt: attempt}
	}
	if prog == nil {
		// Findings with no triggering program (bug #9's map-dump KASAN
		// report) replay through the syscall surface alone.
		a, bug := rk.DumpMaps()
		return report(attempt, a, bug)
	}
	surfaces := []func(*isa.Program) (*kernel.Anomaly, bugs.ID){rk.Direct}
	if prog.Type == isa.ProgTypeXDP {
		surfaces = append(surfaces, rk.Offload, rk.Dispatcher)
	}
	first := Report{Attempt: attempt}
	for _, surface := range surfaces {
		a, bug := surface(prog)
		rep := report(attempt, a, bug)
		if matches(key, rep) {
			return rep
		}
		if !first.Reproduced {
			first = rep
		}
	}
	return first
}

// report packages one surface's anomaly, attributed by Kernel.Triage,
// as replay evidence.
func report(attempt int, a *kernel.Anomaly, bug bugs.ID) Report {
	if a == nil {
		return Report{Attempt: attempt}
	}
	return Report{
		Attempt:    attempt,
		Reproduced: true,
		Bug:        bug,
		Kind:       a.Kind,
		Indicator:  a.Indicator,
		Err:        a.Err.Error(),
	}
}
