package triage

import (
	"sort"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// TestGauntletReplayKernelReuse: the gauntlet replays a finding on one
// replay kernel per environment, Reset between replays, instead of a
// kernel built per surface. Every surface of every finding of the shared
// seed campaign, run in turn on one reused kernel, must give the same
// Report as on a newly built kernel. The findings must include an XDP
// program (so the offload and dispatcher surfaces reproduce something)
// and Bug #9 (the map-dump surface).
func TestGauntletReplayKernelReuse(t *testing.T) {
	st := campaignStats(t)
	type finding struct {
		key  core.BugKey
		prog *isa.Program
	}
	var findings []finding
	for key, rec := range st.Bugs {
		findings = append(findings, finding{key, rec.Program})
	}
	for _, rec := range st.UnattributedSamples {
		findings = append(findings, finding{core.BugKey{Indicator: rec.Indicator, Kind: rec.Kind}, rec.Program})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].key, findings[j].key
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Kind < b.Kind
	})
	type surface struct {
		name string
		run  func(*core.ReplayKernel, *isa.Program) (*kernel.Anomaly, bugs.ID)
	}
	direct := surface{"direct", (*core.ReplayKernel).Direct}
	offload := surface{"offload", (*core.ReplayKernel).Offload}
	dispatcher := surface{"dispatcher", (*core.ReplayKernel).Dispatcher}
	dump := surface{"dump", func(rk *core.ReplayKernel, _ *isa.Program) (*kernel.Anomaly, bugs.ID) {
		return rk.DumpMaps()
	}}
	replay := func(rk *core.ReplayKernel, s surface, p *isa.Program) Report {
		a, bug := s.run(rk, p)
		return report(0, a, bug)
	}

	env := testEnv()
	reused := replayKernel(env)
	reproduced := map[string]bool{}
	for _, f := range findings {
		surfaces := []surface{dump}
		if f.prog != nil {
			surfaces = []surface{direct}
			if f.prog.Type == isa.ProgTypeXDP {
				surfaces = append(surfaces, offload, dispatcher)
			}
		}
		for _, s := range surfaces {
			got := replay(reused, s, f.prog)
			if want := replay(replayKernel(env), s, f.prog); got != want {
				t.Errorf("%v on %s: reused kernel %+v, fresh kernel %+v", f.key, s.name, got, want)
			}
			if got.Reproduced && got.Bug == f.key.ID {
				reproduced[s.name] = true
			}
		}
	}
	for _, name := range []string{"direct", "offload", "dispatcher", "dump"} {
		if !reproduced[name] {
			t.Errorf("no finding reproduced its bug on the %s surface; the comparison does not cover it", name)
		}
	}
}
