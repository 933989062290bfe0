package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bugs"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
	"repro/internal/runtime"
	"repro/internal/verifier"
)

func testPool() []MapHandle {
	return []MapHandle{
		{FD: 3, Spec: maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 4, Name: "arr64"}},
		{FD: 4, Spec: maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 16, MaxEntries: 8, Name: "arr16"}},
		{FD: 5, Spec: maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 16, Name: "hash48"}},
		{FD: 6, Spec: maps.Spec{Type: maps.Queue, ValueSize: 16, MaxEntries: 8, Name: "queue"}},
		{FD: 7, Spec: maps.Spec{Type: maps.RingBuf, MaxEntries: 256, Name: "rb"}},
	}
}

func TestGeneratedProgramsStructurallyValid(t *testing.T) {
	g := NewGenerator(GenConfig{Maps: testPool(), Kfuncs: true})
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		p := g.Generate(r)
		if err := p.Validate(isa.MaxInsns); err != nil {
			t.Fatalf("program %d structurally invalid: %v\n%s", i, err, p)
		}
	}
}

func TestGeneratedProgramsHaveStructure(t *testing.T) {
	g := NewGenerator(GenConfig{Maps: testPool(), Kfuncs: true})
	r := rand.New(rand.NewSource(19))
	var withCall, withJump, withMapRef, withExit int
	n := 2000
	for i := 0; i < n; i++ {
		p := g.Generate(r)
		if !p.Insns[len(p.Insns)-1].IsExit() {
			t.Fatalf("program %d lacks trailing exit", i)
		}
		withExit++
		for _, ins := range p.Insns {
			if ins.IsHelperCall() || ins.IsKfuncCall() {
				withCall++
				break
			}
		}
		for _, ins := range p.Insns {
			if ins.IsCondJump() {
				withJump++
				break
			}
		}
		for _, ins := range p.Insns {
			if ins.IsWide() && (ins.Src == isa.PseudoMapFD || ins.Src == isa.PseudoMapValue) {
				withMapRef++
				break
			}
		}
	}
	// The framed-body design should produce each behaviour in a healthy
	// fraction of programs.
	if withCall < n/3 {
		t.Errorf("only %d/%d programs contain calls", withCall, n)
	}
	if withJump < n/4 {
		t.Errorf("only %d/%d programs contain conditional jumps", withJump, n)
	}
	if withMapRef < n/4 {
		t.Errorf("only %d/%d programs reference maps", withMapRef, n)
	}
}

// TestAcceptanceRateInBand reproduces the §6.3 headline: roughly half of
// BVF's programs pass the verifier.
func TestAcceptanceRateInBand(t *testing.T) {
	if raceEnabled {
		t.Skip("long deterministic campaign; concurrency is covered by the parallel-campaign tests under -race")
	}
	c := NewCampaign(CampaignConfig{Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 23})
	st, err := c.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.AcceptanceRate(); r < 0.35 || r > 0.70 {
		t.Errorf("acceptance rate = %.1f%%, want around the paper's 49%%", 100*r)
	}
	// EACCES and EINVAL dominate rejections, as in the paper.
	if st.ErrnoHist[verifier.EACCES] == 0 || st.ErrnoHist[verifier.EINVAL] == 0 {
		t.Errorf("errno histogram missing EACCES/EINVAL: %v", st.ErrnoHist)
	}
}

// TestCampaignFindsAllSeededBugs is the RQ1 reproduction at unit-test
// scale: a sanitized BVF campaign on bpf-next discovers every Table 2
// bug.
func TestCampaignFindsAllSeededBugs(t *testing.T) {
	if raceEnabled {
		t.Skip("long deterministic campaign; concurrency is covered by the parallel-campaign tests under -race")
	}
	if testing.Short() {
		t.Skip("long campaign")
	}
	c := NewCampaign(CampaignConfig{Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 2})
	st, err := c.Run(250000)
	if err != nil {
		t.Fatal(err)
	}
	want := kernel.BPFNext.DefaultBugs()
	for id := range want {
		if !st.HasBug(id) {
			t.Errorf("campaign missed %v", id)
		}
	}
	if len(st.OtherAnomalies) != 0 {
		t.Errorf("unattributed anomalies: %v", st.OtherAnomalies)
	}
}

// TestSanitationRequiredForIndicator1 shows the oracle asymmetry: without
// the sanitizer the indicator-1 verifier bugs stay invisible (their
// invalid accesses are silent), while indicator-2 bugs are still caught
// by the kernel's own mechanisms.
func TestSanitationRequiredForIndicator1(t *testing.T) {
	if raceEnabled {
		t.Skip("long deterministic campaign; concurrency is covered by the parallel-campaign tests under -race")
	}
	if testing.Short() {
		t.Skip("long campaign")
	}
	run := func(san bool) *Stats {
		c := NewCampaign(CampaignConfig{Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: san, Seed: 2})
		st, err := c.Run(60000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	with := run(true)
	without := run(false)
	ind1 := func(st *Stats) int {
		// Count distinct bugs, not manifestations: one knob can surface
		// under several oracle signatures, all sharing the indicator.
		ids := map[bugs.ID]bool{}
		for key, b := range st.Bugs {
			if b.Indicator == kernel.Indicator1 {
				ids[key.ID] = true
			}
		}
		return len(ids)
	}
	if ind1(with) <= ind1(without) {
		t.Errorf("sanitation did not improve indicator-1 detection: with=%d without=%d",
			ind1(with), ind1(without))
	}
}

func TestVersionGatesBugDiscovery(t *testing.T) {
	if raceEnabled {
		t.Skip("long deterministic campaign; concurrency is covered by the parallel-campaign tests under -race")
	}
	// On a fully fixed kernel no bugs can be found and no anomalies
	// fire — the oracle has no false positives.
	cc := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true,
		OverrideBugs: bugs.None(), Seed: 9,
	})
	st, err := cc.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Bugs) != 0 {
		t.Errorf("fixed kernel yielded bugs: %v", st.BugIDs())
	}
	if len(st.OtherAnomalies) != 0 {
		t.Errorf("fixed kernel yielded anomalies: %v", st.OtherAnomalies)
	}
}

func TestMutatePreservesValidity(t *testing.T) {
	g := NewGenerator(GenConfig{Maps: testPool(), Kfuncs: true})
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 1000; i++ {
		p := g.Generate(r)
		m := Mutate(r, p)
		if err := m.Validate(isa.MaxInsns); err != nil {
			t.Fatalf("mutant %d invalid: %v\norig:\n%s\nmut:\n%s", i, err, p, m)
		}
	}
}

func TestMutateDoesNotAliasOriginal(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 7), isa.Exit(),
	}}
	before := p.Insns[0].Imm
	for i := 0; i < 100; i++ {
		Mutate(r, p)
	}
	if p.Insns[0].Imm != before {
		t.Error("Mutate modified the original program")
	}
}

func TestCorpusWeightedPick(t *testing.T) {
	c := NewCorpus(4)
	r := rand.New(rand.NewSource(37))
	if c.Pick(r) != nil {
		t.Error("empty corpus returned a program")
	}
	mk := func(imm int32) *isa.Program {
		return &isa.Program{Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, imm), isa.Exit()}}
	}
	c.Add(mk(1), 1)
	c.Add(mk(2), 100)
	counts := map[int32]int{}
	for i := 0; i < 2000; i++ {
		counts[c.Pick(r).Insns[0].Imm]++
	}
	if counts[2] < counts[1]*5 {
		t.Errorf("weighting ineffective: %v", counts)
	}
	// Eviction respects the cap.
	for i := int32(3); i < 10; i++ {
		c.Add(mk(i), 1)
	}
	if c.Len() != 4 {
		t.Errorf("corpus len = %d, want 4", c.Len())
	}
}

// TestMutateImmShiftBounds is the regression test for the mutator-bounds
// bug: the maximal shift amounts (63 for 64-bit, 31 for 32-bit) must be
// reachable, and shifts must never leave the valid range.
func TestMutateImmShiftBounds(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	check := func(mk func() *isa.Program, max int32) {
		seen := map[int32]bool{}
		for i := 0; i < 4000; i++ {
			p := mk()
			if !mutateImm(r, p) {
				t.Fatal("mutateImm found no candidate")
			}
			imm := p.Insns[0].Imm
			if imm < 0 || imm > max {
				t.Fatalf("shift imm %d outside [0,%d]", imm, max)
			}
			seen[imm] = true
		}
		if !seen[max] {
			t.Errorf("maximal shift %d never generated", max)
		}
		if !seen[0] {
			t.Errorf("zero shift never generated")
		}
	}
	check(func() *isa.Program {
		return &isa.Program{Insns: []isa.Instruction{
			isa.Alu64Imm(isa.ALULsh, isa.R1, 4), isa.Exit(),
		}}
	}, 63)
	check(func() *isa.Program {
		return &isa.Program{Insns: []isa.Instruction{
			isa.Alu32Imm(isa.ALURsh, isa.R1, 4), isa.Exit(),
		}}
	}, 31)
}

// TestMutateImmSignBitReachable is the regression test for the bit-flip
// arm: flipping the sign bit of an immediate must be possible.
func TestMutateImmSignBitReachable(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	sawSignFlip := false
	for i := 0; i < 20000 && !sawSignFlip; i++ {
		p := &isa.Program{Insns: []isa.Instruction{
			isa.Alu64Imm(isa.ALUAdd, isa.R1, 0), isa.Exit(),
		}}
		if !mutateImm(r, p) {
			t.Fatal("mutateImm found no candidate")
		}
		// From imm 0, the single-bit-flip arm producing the sign bit
		// yields exactly math.MinInt32.
		if p.Insns[0].Imm == -1<<31 {
			sawSignFlip = true
		}
	}
	if !sawSignFlip {
		t.Error("sign bit of the immediate was never flipped")
	}
}

// TestCorpusEvictionCompacts is the regression test for the corpus
// eviction leak: eviction must compact in place (bounded backing array,
// evicted slots nilled for GC) while preserving FIFO order and weights.
func TestCorpusEvictionCompacts(t *testing.T) {
	c := NewCorpus(4)
	mk := func(imm int32) *isa.Program {
		return &isa.Program{Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, imm), isa.Exit()}}
	}
	for i := int32(0); i < 100; i++ {
		c.Add(mk(i), int(i)+1)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	if cap(c.progs) > 8 {
		t.Errorf("backing array grew to cap %d despite in-place compaction", cap(c.progs))
	}
	// FIFO order: the survivors are the last four added.
	for i, want := range []int32{96, 97, 98, 99} {
		if got := c.progs[i].Insns[0].Imm; got != want {
			t.Errorf("progs[%d] = %d, want %d", i, got, want)
		}
	}
	wantTotal := 97 + 98 + 99 + 100
	if c.total != wantTotal {
		t.Errorf("total weight = %d, want %d", c.total, wantTotal)
	}
	r := rand.New(rand.NewSource(47))
	for i := 0; i < 100; i++ {
		if c.Pick(r) == nil {
			t.Fatal("Pick returned nil on a populated corpus")
		}
	}
}

// TestCorpusPinSurvivesEviction is the sibling-batch eviction regression
// test: a pinned parent must survive any number of Add-driven evictions
// mid-batch (the scheduler still holds a pointer to it and replays its
// siblings), its index must track compactions of earlier entries, and
// Unpin must restore plain FIFO eviction.
func TestCorpusPinSurvivesEviction(t *testing.T) {
	mk := func(imm int32) *isa.Program {
		return &isa.Program{Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, imm), isa.Exit()}}
	}
	c := NewCorpus(4)
	for i := int32(0); i < 4; i++ {
		c.Add(mk(i), 1)
	}
	r := rand.New(rand.NewSource(9))
	parent := c.PickPinned(r)
	if parent == nil || c.pinned < 0 {
		t.Fatal("PickPinned did not pin")
	}
	parentImm := parent.Insns[0].Imm
	// Force far more evictions than the corpus holds: the pinned entry
	// must never be the victim, and its index must follow compaction.
	for i := int32(100); i < 120; i++ {
		c.Add(mk(i), 1)
		if c.Len() > 4 {
			t.Fatalf("unpinned-entry eviction failed to hold max: len=%d", c.Len())
		}
		if got := c.progs[c.pinned]; got != parent {
			t.Fatalf("pinned index %d no longer points at the parent (imm %d, want %d)",
				c.pinned, got.Insns[0].Imm, parentImm)
		}
	}
	// The parent is now the oldest entry; with the pin dropped it must be
	// the next eviction victim.
	c.Unpin()
	c.Add(mk(999), 1)
	for i := 0; i < c.Len(); i++ {
		if c.progs[i] == parent {
			t.Fatal("parent survived eviction after Unpin")
		}
	}
	// Degenerate capacity: a max-1 corpus whose only entry is pinned may
	// exceed max by one rather than evict the live batch parent.
	c1 := NewCorpus(1)
	c1.Add(mk(1), 1)
	p1 := c1.PickPinned(r)
	c1.Add(mk(2), 1)
	if c1.Len() != 2 {
		t.Fatalf("max-1 pinned corpus len = %d, want 2 (temporary overflow)", c1.Len())
	}
	if c1.progs[c1.pinned] != p1 {
		t.Fatal("max-1 corpus evicted the pinned entry")
	}
	c1.Unpin()
	c1.Add(mk(3), 1)
	if c1.Len() != 1 {
		t.Fatalf("post-Unpin corpus len = %d, want eviction back under max", c1.Len())
	}
}

func TestCampaignDeterminism(t *testing.T) {
	run := func() *Stats {
		c := NewCampaign(CampaignConfig{Source: BVFSource(true), Version: kernel.V61, Sanitize: true, Seed: 42})
		st, err := c.Run(4000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Accepted != b.Accepted || a.Coverage.Count() != b.Coverage.Count() {
		t.Errorf("campaigns diverged: accepted %d vs %d, cov %d vs %d",
			a.Accepted, b.Accepted, a.Coverage.Count(), b.Coverage.Count())
	}
	if len(a.Bugs) != len(b.Bugs) {
		t.Errorf("bug sets diverged: %v vs %v", a.BugIDs(), b.BugIDs())
	}
}

func TestCoverageCurveMonotonic(t *testing.T) {
	c := NewCampaign(CampaignConfig{Source: BVFSource(true), Version: kernel.V515, Sanitize: true, Seed: 50})
	st, err := c.Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Curve) < 10 {
		t.Fatalf("curve has %d points", len(st.Curve))
	}
	for i := 1; i < len(st.Curve); i++ {
		if st.Curve[i].Branches < st.Curve[i-1].Branches {
			t.Fatal("coverage curve decreased")
		}
		if st.Curve[i].Iteration <= st.Curve[i-1].Iteration {
			t.Fatal("curve iterations not increasing")
		}
	}
}

// TestErrorWalksAllocationFree pins that classifying a load or run error
// allocates nothing, bare or wrapped: every rejected program goes through
// rejectInfo and kernel.Classify, and every failed load or run through
// the watchdog predicates.
func TestErrorWalksAllocationFree(t *testing.T) {
	ve := &verifier.Error{Msg: "invalid mem access", Errno: verifier.EACCES}
	sb := &kernel.SyscallBugError{Size: 8192}
	timeout := fmt.Errorf("verify: %w", &verifier.TimeoutError{})
	watchdog := fmt.Errorf("run: %w", &runtime.WatchdogError{})
	inputs := []error{
		ve, fmt.Errorf("load: %w", ve), sb, fmt.Errorf("load: %w", sb),
		&verifier.TimeoutError{}, timeout, &runtime.WatchdogError{}, watchdog,
		errors.New("other"),
	}
	if n := testing.AllocsPerRun(100, func() { _ = kernel.Classify(ve) }); n != 0 {
		t.Errorf("kernel.Classify(verifier.Error) allocates %v times", n)
	}
	for _, err := range inputs {
		if n := testing.AllocsPerRun(100, func() { _, _ = rejectInfo(err) }); n != 0 {
			t.Errorf("rejectInfo(%v) allocates %v times", err, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = isVerifierTimeout(err) }); n != 0 {
			t.Errorf("isVerifierTimeout(%v) allocates %v times", err, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = isExecWatchdog(err) }); n != 0 {
			t.Errorf("isExecWatchdog(%v) allocates %v times", err, n)
		}
	}
	if errno, word := rejectInfo(fmt.Errorf("load: %w", ve)); errno != verifier.EACCES || word != "invalid" {
		t.Errorf("rejectInfo(wrapped verifier.Error) = %d %q", errno, word)
	}
	if !isVerifierTimeout(timeout) || !isExecWatchdog(watchdog) || isVerifierTimeout(watchdog) {
		t.Error("watchdog predicates misread a wrapped error")
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := NewGenerator(GenConfig{Maps: testPool(), Kfuncs: true})
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Generate(r)
	}
}

func BenchmarkCampaignIteration(b *testing.B) {
	c := NewCampaign(CampaignConfig{Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := c.Run(b.N); err != nil {
		b.Fatal(err)
	}
}
