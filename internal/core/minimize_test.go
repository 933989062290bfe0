package core

import (
	"sort"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// minimizeFixture returns an always-reproducing checker and a program
// with plenty of removable instructions, so minimization behaviour can
// be observed without a kernel in the loop.
func minimizeFixture() (*Reproducer, *isa.Program) {
	rep := &Reproducer{Check: func(p *isa.Program) bool { return true }}
	prog := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "m"}
	for i := 0; i < 24; i++ {
		prog.Insns = append(prog.Insns, isa.Mov64Imm(isa.R0, int32(i)))
	}
	prog.Insns = append(prog.Insns, isa.Exit())
	return rep, prog
}

// TestMinimizeBudget: an expired wall-clock budget returns the current
// (still bug-triggering) program instead of continuing the fixpoint,
// while a disabled budget shrinks all the way.
func TestMinimizeBudget(t *testing.T) {
	defer faultinject.Reset()
	rep, prog := minimizeFixture()

	unbounded := MinimizeOpts(rep, prog, MinimizeOptions{MaxRounds: 4, Budget: -1})
	if len(unbounded.Insns) >= len(prog.Insns) {
		t.Fatalf("unbounded minimization removed nothing: %d -> %d",
			len(prog.Insns), len(unbounded.Insns))
	}

	// Each round starts by stalling longer than the whole budget, so the
	// deadline expires before the first removal is attempted.
	faultinject.Arm("core.minimize.round", faultinject.Fault{
		Kind: faultinject.Delay, Every: 1, Delay: 30 * time.Millisecond,
	})
	bounded := MinimizeOpts(rep, prog, MinimizeOptions{MaxRounds: 4, Budget: 5 * time.Millisecond})
	if len(bounded.Insns) != len(prog.Insns) {
		t.Errorf("expired budget still shrank: %d -> %d", len(prog.Insns), len(bounded.Insns))
	}
}

// freshKernelReproducer is the pre-pooling checker: a brand-new replay
// kernel per candidate. It is the reference NewReproducer's Reset-based
// reuse must agree with, verdict for verdict.
func freshKernelReproducer(version kernel.Version, override bugs.Set, sanitize bool, bug bugs.ID) *Reproducer {
	return &Reproducer{
		Bug: bug,
		Check: func(prog *isa.Program) bool {
			k, _, kerr := NewReplayKernel(version, override, sanitize, false)
			if kerr != nil {
				return false
			}
			lp, err := k.LoadProgram(prog)
			if err != nil {
				if a := kernel.Classify(err); a != nil {
					return k.Triage(a, prog) == bug
				}
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

// TestMinimizeVerdictsWithKernelReuse: NewReproducer now resets one probe
// kernel between candidates instead of constructing a new one each time.
// For every candidate that minimization actually explores, the reused
// kernel's verdict must match a fresh kernel's, and the minimized
// reproducer must come out instruction-for-instruction identical.
func TestMinimizeVerdictsWithKernelReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a bug-finding campaign plus double minimization")
	}
	c := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext,
		Sanitize: true, Seed: 7,
	})
	st, err := c.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only bugs whose recorded program actually reproduces under the
	// replay harness (not every campaign finding does — some fire only in
	// the richer campaign execution context).
	keys := make([]BugKey, 0, len(st.Bugs))
	for key, rec := range st.Bugs {
		if rec.Program == nil {
			continue
		}
		if freshKernelReproducer(kernel.BPFNext, nil, true, key.ID).Check(rec.Program) {
			keys = append(keys, key)
		}
	}
	if len(keys) < 3 {
		t.Fatalf("campaign found only %d replayable bugs", len(keys))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	if len(keys) > 4 {
		keys = keys[:4] // bound the double-minimization cost
	}
	for _, key := range keys {
		prog := st.Bugs[key].Program
		pooled := NewReproducer(kernel.BPFNext, nil, true, false, key.ID)
		fresh := freshKernelReproducer(kernel.BPFNext, nil, true, key.ID)
		mismatches := 0
		// Shadow every pooled verdict with the fresh-kernel reference so
		// the comparison covers the exact candidate sequence Minimize
		// walks, not just the endpoints.
		shadow := &Reproducer{Bug: key.ID, Check: func(p *isa.Program) bool {
			got := pooled.Check(p)
			if want := fresh.Check(p); got != want {
				mismatches++
				if mismatches == 1 {
					t.Errorf("%v: reused-kernel verdict %v != fresh-kernel %v on a %d-insn candidate",
						key, got, want, len(p.Insns))
				}
			}
			return got
		}}
		minShadowed := MinimizeOpts(shadow, prog, MinimizeOptions{MaxRounds: 2, Budget: -1})
		if mismatches > 0 {
			t.Errorf("%v: %d verdict mismatches between reused and fresh kernels", key, mismatches)
		}
		minFresh := MinimizeOpts(fresh, prog, MinimizeOptions{MaxRounds: 2, Budget: -1})
		if minShadowed.String() != minFresh.String() {
			t.Errorf("%v: minimized output differs between reused and fresh kernels:\n--- reused:\n%s\n--- fresh:\n%s",
				key, minShadowed, minFresh)
		}
		if !fresh.Check(minShadowed) {
			t.Errorf("%v: minimized reproducer no longer triggers on a fresh kernel", key)
		}
	}
}

// TestMinimizeRoundBudget: an expired per-round budget abandons the pass
// but later rounds (and the final result) still make progress.
func TestMinimizeRoundBudget(t *testing.T) {
	rep, prog := minimizeFixture()
	got := MinimizeOpts(rep, prog, MinimizeOptions{
		MaxRounds: 4, Budget: -1, RoundBudget: time.Nanosecond,
	})
	// Every pass expires immediately; the result must still be valid and
	// no larger than the input.
	if len(got.Insns) > len(prog.Insns) {
		t.Errorf("round-budgeted minimization grew the program: %d -> %d",
			len(prog.Insns), len(got.Insns))
	}
	if got.Validate(isa.MaxInsns) != nil {
		t.Error("round-budgeted result does not validate")
	}
}
