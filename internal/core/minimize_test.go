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
// kernel per candidate, which loads the candidate and runs it twice
// whatever the bug. It is the reference NewReproducer's Reset-based reuse,
// and its load-only check of a bug raised at load, must agree with,
// verdict for verdict.
func freshKernelReproducer(version kernel.Version, override bugs.Set, sanitize, oracle bool, bug bugs.ID) *Reproducer {
	return &Reproducer{
		Bug: bug,
		Check: func(prog *isa.Program) bool {
			k, _, kerr := NewReplayKernel(version, override, sanitize, oracle)
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

// TestMinimizeVerdictsWithKernelReuse: NewReproducer resets one probe
// kernel between candidates instead of constructing a new one each time,
// and decides a bug raised only at load without running the candidate or
// recording claims. For every candidate that minimization actually
// explores, its verdict must match a fresh kernel's that loads and runs
// the candidate, and the minimized reproducer must come out
// instruction-for-instruction identical. The inputs are an oracle-off
// campaign's first replayable findings plus the Bug #8 finding of an
// oracle-on campaign.
func TestMinimizeVerdictsWithKernelReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two bug-finding campaigns plus double minimization")
	}
	type input struct {
		key    BugKey
		prog   *isa.Program
		oracle bool
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
		if freshKernelReproducer(kernel.BPFNext, nil, true, false, key.ID).Check(rec.Program) {
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
	var inputs []input
	for _, key := range keys {
		inputs = append(inputs, input{key, st.Bugs[key].Program, false})
	}
	// Seed 7's oracle-on campaign finds Bug #8 at iteration 439.
	ost, err := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext,
		Sanitize: true, Seed: 7, Oracle: true,
	}).Run(500)
	if err != nil {
		t.Fatal(err)
	}
	for key, rec := range ost.Bugs {
		if kernel.RaisedOnlyAtLoad(key.ID) && rec.Program != nil {
			inputs = append(inputs, input{key, rec.Program, true})
		}
	}
	if len(inputs) != len(keys)+1 {
		t.Fatalf("oracle campaign gave %d load-time findings, want 1", len(inputs)-len(keys))
	}
	for _, in := range inputs {
		key, prog := in.key, in.prog
		pooled := NewReproducer(kernel.BPFNext, nil, true, in.oracle, key.ID)
		fresh := freshKernelReproducer(kernel.BPFNext, nil, true, in.oracle, key.ID)
		if !fresh.Check(prog) {
			t.Errorf("%v: recorded program does not reproduce on a fresh kernel", key)
			continue
		}
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

// thresholdFixture returns the 24 movs plus exit of minimizeFixture and a
// reproducer that accepts any candidate of at least k+1 instructions,
// counting its checks in *checks. Before each check it calls before with
// the check's number, counting from 1.
func thresholdFixture(k int, checks *int, before func(n int)) (*Reproducer, *isa.Program) {
	_, prog := minimizeFixture()
	return &Reproducer{Check: func(p *isa.Program) bool {
		*checks++
		before(*checks)
		return len(p.Insns) >= k+1
	}}, prog
}

// TestMinimizeSkipsKnownRejects pins the check counts on n movs plus exit.
// The first pass removes every mov from index n-1 down to k, and checks
// and rejects the k below it against the program it ends with: n checks.
// Those k are known rejects, so the second pass stops at index k with no
// check. The reference loop checks them again: n+k.
func TestMinimizeSkipsKnownRejects(t *testing.T) {
	const n, k = 24, 8
	checks := 0
	rep, prog := thresholdFixture(k, &checks, func(int) {})
	got := MinimizeOpts(rep, prog, MinimizeOptions{Budget: -1})
	if len(got.Insns) != k+1 || checks != n {
		t.Errorf("minimized to %d insns with %d checks, want %d with %d", len(got.Insns), checks, k+1, n)
	}
	checks = 0
	want := minimizeRef(rep, prog, MinimizeOptions{Budget: -1})
	if want.String() != got.String() || checks != n+k {
		t.Errorf("reference minimized to %d insns with %d checks, want the same program with %d",
			len(want.Insns), checks, n+k)
	}
}

// TestMinimizeCutPassSkipsNothing: a pass cut short by its round budget
// has not tried the candidates below its lowest removal, so the next
// pass checks every index. The fifth check outlasts the round budget:
// the first pass ends after 5 removals, the second checks all 19 movs of
// the 20 instructions left and removes down to index k, and the third
// checks nothing. With the cut taken as a full pass, the second pass
// would stop at index 19 and keep 20 instructions.
func TestMinimizeCutPassSkipsNothing(t *testing.T) {
	const n, k = 24, 8
	const roundBudget = 200 * time.Millisecond
	checks := 0
	rep, prog := thresholdFixture(k, &checks, func(c int) {
		if c == 5 {
			time.Sleep(roundBudget + 50*time.Millisecond)
		}
	})
	opts := MinimizeOptions{Budget: -1, RoundBudget: roundBudget}
	got := MinimizeOpts(rep, prog, opts)
	if len(got.Insns) != k+1 || checks != n {
		t.Errorf("minimized to %d insns with %d checks, want %d with %d", len(got.Insns), checks, k+1, n)
	}
	checks = 0
	want := minimizeRef(rep, prog, opts)
	if want.String() != got.String() || checks != n+k {
		t.Errorf("reference minimized to %d insns with %d checks, want the same program with %d",
			len(want.Insns), checks, n+k)
	}
}

// BenchmarkMinimizeBug8 minimizes one fixed Bug #8 reproducer, the
// 549-instruction program seed 7's oracle-on campaign finds at iteration
// 439, through an oracle-on NewReproducer with the gauntlet's round
// bound and no wall-clock budget. checks/op counts the reproducer checks
// of one minimization.
func BenchmarkMinimizeBug8(b *testing.B) {
	st, err := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext,
		Sanitize: true, Seed: 7, Oracle: true,
	}).Run(500)
	if err != nil {
		b.Fatal(err)
	}
	var prog *isa.Program
	for key, rec := range st.Bugs {
		if key.ID == bugs.Bug8Kmemdup {
			prog = rec.Program
		}
	}
	if prog == nil {
		b.Fatal("campaign found no Bug #8 reproducer")
	}
	checks := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := NewReproducer(kernel.BPFNext, nil, true, true, bugs.Bug8Kmemdup)
		MinimizeOpts(counting(rep, &checks), prog, MinimizeOptions{MaxRounds: 4, Budget: -1})
	}
	b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
}

// TestMinimizeChecksLastRemovedIndex: the index the previous pass last
// removed holds an instruction no pass has tried to remove from the
// current program, so the next pass checks it. Of movs 1, 2, 3, 4 plus
// exit, 1 and 2 must stay, and 4 may go only once 3 has: the first pass
// removes 3 at index 2, and the second removes 4, which moved to index 2.
func TestMinimizeChecksLastRemovedIndex(t *testing.T) {
	movs := func(imms ...int32) *isa.Program {
		p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "m"}
		for _, imm := range imms {
			p.Insns = append(p.Insns, isa.Mov64Imm(isa.R0, imm))
		}
		p.Insns = append(p.Insns, isa.Exit())
		return p
	}
	checks := 0
	rep := &Reproducer{Check: func(p *isa.Program) bool {
		checks++
		has := map[int32]bool{}
		for _, ins := range p.Insns {
			has[ins.Imm] = true
		}
		return has[1] && has[2] && (has[4] || !has[3])
	}}
	want := movs(1, 2).String()
	for _, run := range []struct {
		name     string
		minimize func(*Reproducer, *isa.Program, MinimizeOptions) *isa.Program
		checks   int
	}{{"MinimizeOpts", MinimizeOpts, 7}, {"reference", minimizeRef, 9}} {
		checks = 0
		got := run.minimize(rep, movs(1, 2, 3, 4), MinimizeOptions{Budget: -1})
		if got.String() != want || checks != run.checks {
			t.Errorf("%s: minimized to\n%s\nwith %d checks, want movs 1, 2 and exit with %d", run.name, got, checks, run.checks)
		}
	}
}
