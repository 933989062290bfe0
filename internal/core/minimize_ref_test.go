package core

import (
	"sort"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// minimizeRef is MinimizeOpts as it was before a pass ended where the
// previous one last removed, kept as the reference the differential test
// compares the current loop against: every pass walks down to index 0,
// so it re-checks the candidates the previous pass rejected last.
func minimizeRef(rep *Reproducer, prog *isa.Program, o MinimizeOptions) *isa.Program {
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
	for round := 0; round < o.MaxRounds; round++ {
		faultinject.Fire("core.minimize.round")
		var roundDeadline time.Time
		if o.RoundBudget > 0 {
			roundDeadline = time.Now().Add(o.RoundBudget)
		}
		shrunk := false
		for i := len(cur.Insns) - 1; i >= 0; i-- {
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return cur
			}
			if !roundDeadline.IsZero() && !time.Now().Before(roundDeadline) {
				break
			}
			cand, err := isa.RemoveAt(cur, i)
			if err != nil || cand.Validate(isa.MaxInsns) != nil {
				continue
			}
			if rep.Check(cand) {
				cur = cand
				shrunk = true
			}
		}
		if !shrunk {
			break
		}
	}
	return cur
}

// counting wraps rep so every check adds one to *n.
func counting(rep *Reproducer, n *int) *Reproducer {
	return &Reproducer{Bug: rep.Bug, Check: func(p *isa.Program) bool {
		*n++
		return rep.Check(p)
	}}
}

// TestMinimizeMatchesReference minimizes every finding the gauntlet would
// minimize, from fixed campaigns with the oracle off and on at two seeds,
// twice: with MinimizeOpts over NewReproducer, and with the reference loop
// over the fresh-kernel checker that loads and runs every candidate. The
// programs must be byte-identical and MinimizeOpts must never check more;
// on every Bug #8 finding, which each campaign has, it must check fewer.
func TestMinimizeMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four bug-finding campaigns plus double minimization")
	}
	if raceEnabled {
		t.Skip("minimizes every finding of four campaigns twice; too slow under -race")
	}
	opts := MinimizeOptions{MaxRounds: 4, Budget: -1}
	for _, oracle := range []bool{false, true} {
		for _, seed := range []int64{1, 7} {
			st, err := NewCampaign(CampaignConfig{
				Source: BVFSource(true), Version: kernel.BPFNext,
				Sanitize: true, Seed: seed, Oracle: oracle,
			}).Run(3000)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]BugKey, 0, len(st.Bugs))
			for key := range st.Bugs {
				keys = append(keys, key)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			loadOnly := 0
			for _, key := range keys {
				prog := st.Bugs[key].Program
				rep := NewReproducer(kernel.BPFNext, nil, true, oracle, key.ID)
				// The gauntlet minimizes only what its checker reproduces.
				if prog == nil || key.ID == 0 || !rep.Check(prog) {
					continue
				}
				var got, want int
				min := MinimizeOpts(counting(rep, &got), prog, opts)
				ref := minimizeRef(counting(freshKernelReproducer(kernel.BPFNext, nil, true, oracle, key.ID), &want), prog, opts)
				if min.String() != ref.String() {
					t.Errorf("oracle=%v seed %d %v: minimized %d insns, reference %d:\n--- got:\n%s\n--- reference:\n%s",
						oracle, seed, key, len(min.Insns), len(ref.Insns), min, ref)
				}
				if got > want {
					t.Errorf("oracle=%v seed %d %v: %d checks, reference %d", oracle, seed, key, got, want)
				}
				if kernel.RaisedOnlyAtLoad(key.ID) {
					loadOnly++
					if got >= want {
						t.Errorf("oracle=%v seed %d %v: %d checks, not fewer than the reference's %d",
							oracle, seed, key, got, want)
					}
					t.Logf("oracle=%v seed %d %v: %d -> %d insns, %d checks, reference %d",
						oracle, seed, key, len(prog.Insns), len(min.Insns), got, want)
				}
			}
			if loadOnly == 0 {
				t.Errorf("oracle=%v seed %d: no Bug #8 finding to minimize", oracle, seed)
			}
		}
	}
}
