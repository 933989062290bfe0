package core

import (
	"testing"

	"repro/internal/bugs"
	"repro/internal/kernel"
)

func parallelConfig(workers int, seed int64) ParallelConfig {
	return ParallelConfig{
		CampaignConfig: CampaignConfig{
			Source: BVFSource(true), Version: kernel.BPFNext,
			Sanitize: true, Seed: seed,
		},
		Workers:   workers,
		SyncEvery: 512,
	}
}

// TestParallelCampaignReproducible: same seed + same worker count must
// yield bit-identical campaign outcomes regardless of the goroutine
// schedule, because shards only interact at round barriers.
func TestParallelCampaignReproducible(t *testing.T) {
	run := func() *Stats {
		p := NewParallelCampaign(parallelConfig(4, 77))
		st, err := p.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Iterations != b.Iterations || a.Accepted != b.Accepted {
		t.Errorf("runs diverged: iters %d vs %d, accepted %d vs %d",
			a.Iterations, b.Iterations, a.Accepted, b.Accepted)
	}
	if a.Coverage.Count() != b.Coverage.Count() {
		t.Errorf("coverage diverged: %d vs %d", a.Coverage.Count(), b.Coverage.Count())
	}
	ids1, ids2 := a.BugIDs(), b.BugIDs()
	if len(ids1) != len(ids2) {
		t.Fatalf("bug sets diverged: %v vs %v", ids1, ids2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("bug sets diverged: %v vs %v", ids1, ids2)
		}
		if a.BugByID(ids1[i]).FoundAt != b.BugByID(ids2[i]).FoundAt {
			t.Errorf("%v found at %d vs %d", ids1[i],
				a.BugByID(ids1[i]).FoundAt, b.BugByID(ids2[i]).FoundAt)
		}
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("curves diverged: %d vs %d points", len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curve point %d diverged: %+v vs %+v", i, a.Curve[i], b.Curve[i])
		}
	}
}

// TestParallelSupersetOfSingleWorker: at an equal total iteration budget,
// the sharded campaign (cross-pollinated corpora, 4 distinct RNG
// trajectories) must find at least the single-worker bug set.
func TestParallelSupersetOfSingleWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	if raceEnabled {
		t.Skip("long campaign; TestParallelCampaignRace covers the concurrent paths under -race")
	}
	const budget = 40000
	single := NewParallelCampaign(parallelConfig(1, 1))
	sst, err := single.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	sharded := NewParallelCampaign(parallelConfig(4, 1))
	pst, err := sharded.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single worker: %v", sst.BugIDs())
	t.Logf("4 workers:     %v", pst.BugIDs())
	for key := range sst.Bugs {
		if _, ok := pst.Bugs[key]; !ok {
			t.Errorf("4-worker campaign missed %v (found by 1 worker)", key)
		}
	}
	if pst.Iterations != sst.Iterations {
		t.Errorf("iteration budgets differ: %d vs %d", pst.Iterations, sst.Iterations)
	}
}

// TestParallelSingleWorkerMatchesCampaign: a 1-shard ParallelCampaign is
// the plain Campaign — same seed, same trajectory, same results.
func TestParallelSingleWorkerMatchesCampaign(t *testing.T) {
	const budget = 4000
	c := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 13,
	})
	cst, err := c.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	p := NewParallelCampaign(parallelConfig(1, 13))
	pst, err := p.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	if cst.Accepted != pst.Accepted || cst.Coverage.Count() != pst.Coverage.Count() {
		t.Errorf("1-shard parallel diverged from Campaign: accepted %d vs %d, cov %d vs %d",
			cst.Accepted, pst.Accepted, cst.Coverage.Count(), pst.Coverage.Count())
	}
	if got, want := pst.BugIDs(), cst.BugIDs(); len(got) != len(want) {
		t.Errorf("bug sets diverged: %v vs %v", got, want)
	}
}

// TestParallelCampaignRace exercises the concurrent paths under the race
// detector with more workers than the acceptance criterion's minimum.
func TestParallelCampaignRace(t *testing.T) {
	cfg := parallelConfig(6, 3)
	cfg.SyncEvery = 128
	p := NewParallelCampaign(cfg)
	st, err := p.Run(1800)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 1800 {
		t.Errorf("iterations = %d, want 1800", st.Iterations)
	}
	if st.Coverage.Count() == 0 {
		t.Error("no coverage accumulated")
	}
	// The merged curve is on the global axis and monotone.
	for i := 1; i < len(st.Curve); i++ {
		if st.Curve[i].Iteration <= st.Curve[i-1].Iteration {
			t.Fatalf("global curve iterations not increasing at %d: %+v", i, st.Curve[i-1:i+1])
		}
		if st.Curve[i].Branches < st.Curve[i-1].Branches {
			t.Fatalf("global curve decreased at %d", i)
		}
	}
}

// TestRepeatedRunContinuesIterationAxis is the regression test for the
// iteration-accounting bug: a second Run call must continue the
// iteration axis, not restart FoundAt/Curve numbering at zero.
func TestRepeatedRunContinuesIterationAxis(t *testing.T) {
	c := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 8,
	})
	if _, err := c.Run(1500); err != nil {
		t.Fatal(err)
	}
	firstBugs := len(c.Stats().Bugs)
	if _, err := c.Run(1500); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Iterations != 3000 {
		t.Fatalf("iterations = %d, want 3000", st.Iterations)
	}
	for i := 1; i < len(st.Curve); i++ {
		if st.Curve[i].Iteration <= st.Curve[i-1].Iteration {
			t.Fatalf("curve iteration not strictly increasing across Run calls: %d then %d",
				st.Curve[i-1].Iteration, st.Curve[i].Iteration)
		}
	}
	if last := st.Curve[len(st.Curve)-1].Iteration; last != 3000 {
		t.Errorf("final curve point at iteration %d, want 3000", last)
	}
	// Any bug found during the second call must carry a FoundAt on the
	// continued axis (>= 1500), never a restarted index.
	seenSecondHalf := false
	for id, rec := range st.Bugs {
		if rec.FoundAt >= 1500 {
			seenSecondHalf = true
		}
		if rec.FoundAt < 0 || rec.FoundAt >= 3000 {
			t.Errorf("%v FoundAt %d outside the global axis", id, rec.FoundAt)
		}
	}
	if len(st.Bugs) > firstBugs && !seenSecondHalf {
		t.Error("second Run recorded bugs with restarted iteration indices")
	}
}

// TestShardCurvesDroppedAtBarrier: mergeStats replaces shard curves with
// the barrier curve, so a shard must not keep its own points past a
// barrier — they would grow with every round, in memory and in every
// checkpoint. The merged curve still holds one point per round. The
// merged bugs keep their raw programs only: minimizing them is the
// triage gauntlet's job.
func TestShardCurvesDroppedAtBarrier(t *testing.T) {
	const rounds, syncEvery = 8, 256
	cfg := parallelConfig(2, 5)
	cfg.SyncEvery = syncEvery
	p := NewParallelCampaign(cfg)
	st, err := p.Run(rounds * 2 * syncEvery)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Bugs) == 0 {
		t.Fatal("campaign found no bugs")
	}
	for key, rec := range st.Bugs {
		if rec.Minimized != nil {
			t.Errorf("%v: campaign minimized its reproducer", key)
		}
	}
	for i, sh := range p.shards {
		if n := len(sh.Stats().Curve); n != 0 {
			t.Errorf("shard %d kept %d curve points past the last barrier", i, n)
		}
	}
	if len(st.Curve) != rounds {
		t.Fatalf("merged curve has %d points, want one per round (%d): %+v", len(st.Curve), rounds, st.Curve)
	}
	for k, pt := range st.Curve {
		if want := (k + 1) * 2 * syncEvery; pt.Iteration != want {
			t.Errorf("curve point %d at iteration %d, want %d", k, pt.Iteration, want)
		}
		if k > 0 && pt.Branches < st.Curve[k-1].Branches {
			t.Errorf("curve point %d: coverage fell from %d to %d", k, st.Curve[k-1].Branches, pt.Branches)
		}
	}
	if last := st.Curve[rounds-1].Branches; last != st.Coverage.Count() {
		t.Errorf("last curve point has %d sites, merged coverage %d", last, st.Coverage.Count())
	}
}

// ---------------------------------------------------------------------
// Stats.Merge unit tests

func TestStatsMergeHistogramsAndCounters(t *testing.T) {
	a := NewStats("BVF", kernel.BPFNext)
	b := NewStats("BVF", kernel.BPFNext)
	a.Iterations, b.Iterations = 100, 50
	a.Accepted, b.Accepted = 40, 30
	a.ErrnoHist[13] = 7
	b.ErrnoHist[13] = 5
	b.ErrnoHist[22] = 2
	a.RejectReasons["R1"] = 1
	b.RejectReasons["R1"] = 2
	b.InsnClassMix["alu64"] = 9
	a.Merge(b)
	if a.Iterations != 150 || a.Accepted != 70 {
		t.Errorf("counters: iters %d accepted %d", a.Iterations, a.Accepted)
	}
	if a.ErrnoHist[13] != 12 || a.ErrnoHist[22] != 2 {
		t.Errorf("errno hist: %v", a.ErrnoHist)
	}
	if a.RejectReasons["R1"] != 3 {
		t.Errorf("reject reasons: %v", a.RejectReasons)
	}
	if a.InsnClassMix["alu64"] != 9 {
		t.Errorf("insn mix: %v", a.InsnClassMix)
	}
}

func TestStatsMergeBugDedupKeepsEarliest(t *testing.T) {
	a := NewStats("BVF", kernel.BPFNext)
	b := NewStats("BVF", kernel.BPFNext)
	k1 := BugKey{ID: bugs.Bug1NullnessProp, Kind: "kasan:oob"}
	k4 := BugKey{ID: bugs.Bug4TracePrintk, Kind: "syscall-warning"}
	a.Bugs[k1] = &BugRecord{ID: bugs.Bug1NullnessProp, FoundAt: 900}
	b.Bugs[k1] = &BugRecord{ID: bugs.Bug1NullnessProp, FoundAt: 200}
	b.Bugs[k4] = &BugRecord{ID: bugs.Bug4TracePrintk, FoundAt: 400}
	a.Merge(b)
	if got := a.Bugs[k1].FoundAt; got != 200 {
		t.Errorf("dedup kept FoundAt %d, want earliest 200", got)
	}
	if _, ok := a.Bugs[k4]; !ok {
		t.Error("merge dropped a bug unique to other")
	}
	// b is untouched.
	if b.Bugs[k1].FoundAt != 200 || len(b.Bugs) != 2 {
		t.Error("merge modified other")
	}
}

// TestStatsMergeDistinctManifestations: one bug knob firing under two
// oracle signatures must keep two records — the dedup key is the full
// manifestation, not the bug ID.
func TestStatsMergeDistinctManifestations(t *testing.T) {
	a := NewStats("BVF", kernel.BPFNext)
	b := NewStats("BVF", kernel.BPFNext)
	k1 := BugKey{ID: bugs.Bug1NullnessProp, Indicator: kernel.Indicator1, Kind: "kasan:oob"}
	k2 := BugKey{ID: bugs.Bug1NullnessProp, Indicator: kernel.Indicator2, Kind: "alu-limit-violation"}
	a.Bugs[k1] = &BugRecord{ID: bugs.Bug1NullnessProp, FoundAt: 10}
	b.Bugs[k2] = &BugRecord{ID: bugs.Bug1NullnessProp, FoundAt: 20}
	a.Merge(b)
	if len(a.Bugs) != 2 {
		t.Fatalf("merged Bugs has %d records, want 2 distinct manifestations", len(a.Bugs))
	}
	// Counting and lookup still deduplicate on the bug ID.
	if ids := a.BugIDs(); len(ids) != 1 || ids[0] != bugs.Bug1NullnessProp {
		t.Errorf("BugIDs = %v, want the one distinct ID", ids)
	}
	if got := a.BugByID(bugs.Bug1NullnessProp).FoundAt; got != 10 {
		t.Errorf("BugByID FoundAt = %d, want the earliest (10)", got)
	}
	if n := a.VerifierBugsFound(); n != 1 {
		t.Errorf("VerifierBugsFound = %d, want 1 (manifestations collapse)", n)
	}
}

func TestStatsMergeCurves(t *testing.T) {
	a := NewStats("BVF", kernel.BPFNext)
	b := NewStats("BVF", kernel.BPFNext)
	a.Curve = []CurvePoint{{Iteration: 10, Branches: 5}, {Iteration: 30, Branches: 9}}
	b.Curve = []CurvePoint{{Iteration: 10, Branches: 7}, {Iteration: 20, Branches: 8}, {Iteration: 40, Branches: 8}}
	a.Merge(b)
	want := []CurvePoint{{10, 7}, {20, 8}, {30, 9}, {40, 9}}
	if len(a.Curve) != len(want) {
		t.Fatalf("curve = %+v, want %+v", a.Curve, want)
	}
	for i := range want {
		if a.Curve[i] != want[i] {
			t.Fatalf("curve[%d] = %+v, want %+v (full: %+v)", i, a.Curve[i], want[i], a.Curve)
		}
	}
}

func TestStatsMergeCoverage(t *testing.T) {
	a := NewStats("BVF", kernel.BPFNext)
	b := NewStats("BVF", kernel.BPFNext)
	a.Coverage.HitLoc("siteA")
	b.Coverage.HitLoc("siteA")
	b.Coverage.HitLoc("siteB")
	a.Merge(b)
	if a.Coverage.Count() != 2 {
		t.Errorf("merged coverage = %d sites, want 2", a.Coverage.Count())
	}
	if b.Coverage.Count() != 2 {
		t.Errorf("other's coverage modified: %d sites", b.Coverage.Count())
	}
}
