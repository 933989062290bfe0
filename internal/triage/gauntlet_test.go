package triage

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
)

// testEnv is the environment the shared campaign runs in.
func testEnv() Env {
	return Env{Version: kernel.BPFNext, Sanitize: true}
}

// campaignStats runs one moderate fixed-seed campaign, whose findings
// carry raw programs for the gauntlet to minimize, and caches the result
// for every test.
var (
	campOnce  sync.Once
	campStats *core.Stats
)

func campaignStats(t *testing.T) *core.Stats {
	t.Helper()
	campOnce.Do(func() {
		c := core.NewCampaign(core.CampaignConfig{
			Source: core.BVFSource(true), Version: kernel.BPFNext,
			Sanitize: true, Seed: 7,
		})
		if st, err := c.Run(10000); err == nil {
			campStats = st
		}
	})
	if campStats == nil {
		t.Fatal("shared campaign failed")
	}
	return campStats
}

// stubSleep swaps backoff waits for instant, recorded ones.
func stubSleep(waits *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *waits = append(*waits, d) }
}

// deterministicFinding picks a program-based finding from the shared
// campaign whose replay matches its signature without any faults armed
// and whose reproducer is checkable on the minimization surface.
func deterministicFinding(t *testing.T) *Finding {
	t.Helper()
	st := campaignStats(t)
	var keys []core.BugKey
	for key := range st.Bugs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		return (&Finding{Raw: RawFinding{Key: keys[i]}}).Key() < (&Finding{Raw: RawFinding{Key: keys[j]}}).Key()
	})
	env := testEnv()
	for _, key := range keys {
		rec := st.Bugs[key]
		if rec.Program == nil {
			continue
		}
		f := &Finding{Raw: RawFinding{
			Key: key, FoundAt: rec.FoundAt, Err: rec.Err,
			Program: rec.Program, Env: env,
		}}
		if !matches(key, replayOnce(env, key, 0, rec.Program)) {
			continue
		}
		if !core.NewReproducer(env.Version, env.Bugs, env.Sanitize, env.Oracle, key.ID).Check(rec.Program) {
			continue
		}
		return f
	}
	t.Fatal("no deterministically replayable program finding in the campaign")
	return nil
}

// TestGauntletStable is the end-to-end acceptance path: a fixed-seed
// campaign's findings enter the gauntlet and at least one verifier
// correctness bug comes out Stable with a full cross-config matrix.
// Every minimized reproducer is no larger than the raw program and still
// triggers its bug on a pristine kernel, and minimization shrinks the
// findings overall.
func TestGauntletStable(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	st := campaignStats(t)
	store, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	var waits []time.Duration
	g := New(Config{Sleep: stubSleep(&waits)}, store)
	added, err := g.Ingest(st, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("campaign produced no findings to ingest")
	}
	// Re-ingesting must be a no-op (the resume path).
	if again, err := g.Ingest(st, testEnv()); err != nil || again != 0 {
		t.Fatalf("re-ingest added %d findings (err %v), want 0", again, err)
	}
	sum, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != added {
		t.Errorf("summary total %d != ingested %d", sum.Total, added)
	}
	if sum.Pending != 0 {
		t.Errorf("%d findings left pending — the gauntlet must reach a verdict on all", sum.Pending)
	}
	stableVerifier, minimized, rawInsns, minInsns := 0, 0, 0, 0
	for _, f := range sum.Findings {
		if f.Stage != StageDone {
			t.Errorf("%s left at stage %s", f.Key(), f.Stage)
		}
		if f.Verdict != Stable {
			continue
		}
		if len(f.Matrix) != len(kernel.AllVersions)*2 {
			t.Errorf("%s: matrix has %d cells, want %d", f.Key(), len(f.Matrix), len(kernel.AllVersions)*2)
		}
		if f.Class == ClassVerifierCorrectness {
			stableVerifier++
		}
		if f.Minimized == nil {
			continue
		}
		minimized++
		rawInsns += len(f.Raw.Program.Insns)
		minInsns += len(f.Minimized.Insns)
		if len(f.Minimized.Insns) > len(f.Raw.Program.Insns) {
			t.Errorf("%s: minimized %d insns > raw %d", f.Key(),
				len(f.Minimized.Insns), len(f.Raw.Program.Insns))
		}
		env := f.Raw.Env
		if !core.NewReproducer(env.Version, env.Bugs, env.Sanitize, env.Oracle, f.Raw.Key.ID).Check(f.Minimized) {
			t.Errorf("%s: minimized reproducer no longer triggers:\n%s", f.Key(), f.Minimized)
		}
	}
	if stableVerifier == 0 {
		t.Error("no stable verifier correctness finding survived the gauntlet")
	}
	t.Logf("minimization: %d -> %d insns across %d reproducers", rawInsns, minInsns, minimized)
	if minimized < 3 {
		t.Errorf("only %d findings carried minimized reproducers, want at least 3", minimized)
	}
	if minInsns >= rawInsns {
		t.Errorf("minimization removed nothing overall: %d -> %d insns", rawInsns, minInsns)
	}
	var buf bytes.Buffer
	sum.Print(&buf)
	if !strings.Contains(buf.String(), "stable:") || !strings.Contains(buf.String(), "matrix") {
		t.Error("summary print malformed")
	}
}

// TestGauntletFlakyQuarantinedThenPromoted: one injected replay failure
// lands the finding in quarantine; the next validation round replays
// cleanly and promotes it to Stable, keeping the full evidence trail.
func TestGauntletFlakyQuarantinedThenPromoted(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	defer faultinject.Reset()
	f := deterministicFinding(t)
	store, _ := Open("")
	if err := store.Put(f); err != nil {
		t.Fatal(err)
	}
	var waits []time.Duration
	g := New(Config{Replays: 5, RetryCap: 3, Sleep: stubSleep(&waits)}, store)

	// The 2nd replay attempt reports a nondeterministic non-reproduction.
	faultinject.Arm("triage.replay", faultinject.Fault{Kind: faultinject.Error, OnHit: 2})
	sum, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if f.Verdict != Stable {
		t.Fatalf("verdict = %v, want stable after promotion", f.Verdict)
	}
	if f.Attempts != 1 {
		t.Errorf("attempts = %d, want exactly 1 quarantine round", f.Attempts)
	}
	if len(f.Replays) != 10 {
		t.Errorf("replays = %d, want 10 (flaky round + clean round)", len(f.Replays))
	}
	if f.Replays[1].Reproduced {
		t.Error("the injected-failure replay is recorded as reproduced")
	}
	if !strings.Contains(f.Note, "promoted from quarantine") {
		t.Errorf("note %q does not record the promotion", f.Note)
	}
	if len(waits) != 1 {
		t.Errorf("backoff slept %d times, want 1", len(waits))
	}
	if sum.Stable == 0 || sum.Quarantined != 0 {
		t.Errorf("summary stable=%d quarantined=%d, want promoted finding counted stable",
			sum.Stable, sum.Quarantined)
	}
}

// TestGauntletFlakyStaysQuarantined: a persistently nondeterministic
// oracle exhausts the retry cap; the finding stays quarantined with its
// evidence — reported, never dropped, and never in the stable set.
func TestGauntletFlakyStaysQuarantined(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	defer faultinject.Reset()
	f := deterministicFinding(t)
	store, _ := Open("")
	if err := store.Put(f); err != nil {
		t.Fatal(err)
	}
	var waits []time.Duration
	g := New(Config{Replays: 5, RetryCap: 2, Sleep: stubSleep(&waits)}, store)

	// Every other replay fails: no round is ever clean.
	faultinject.Arm("triage.replay", faultinject.Fault{Kind: faultinject.Error, Every: 2})
	sum, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if f.Verdict != Flaky || f.Stage != StageDone {
		t.Fatalf("verdict = %v stage = %v, want quarantined and done", f.Verdict, f.Stage)
	}
	if f.Attempts != 3 {
		t.Errorf("attempts = %d, want cap+1 rounds consumed", f.Attempts)
	}
	if len(f.Matrix) != 0 {
		t.Error("quarantined finding ran cross-config classification")
	}
	if len(f.Replays) != 15 {
		t.Errorf("evidence has %d replays, want 15 (3 rounds of 5)", len(f.Replays))
	}
	if !strings.Contains(f.Note, "retry cap") {
		t.Errorf("note %q does not record the exhausted cap", f.Note)
	}
	// Backoff is exponential between rounds.
	if len(waits) != 2 || waits[1] <= waits[0] {
		t.Errorf("backoff waits = %v, want 2 increasing delays", waits)
	}
	if sum.Quarantined != 1 || sum.Stable != 0 {
		t.Errorf("summary quarantined=%d stable=%d; the flaky finding must stay visible",
			sum.Quarantined, sum.Stable)
	}
	var buf bytes.Buffer
	sum.Print(&buf)
	if !strings.Contains(buf.String(), "evidence:") {
		t.Error("summary print omits the quarantine evidence")
	}
}

// TestGauntletHarnessArtifact: a finding whose recorded fault came from
// injected harness faults never reproduces and is correlated with its
// provenance instead of being quarantined forever.
func TestGauntletHarnessArtifact(t *testing.T) {
	store, _ := Open("")
	f := &Finding{Raw: RawFinding{
		Key:     core.BugKey{Indicator: kernel.Indicator2, Kind: "kernel-panic"},
		FoundAt: 123,
		Err:     `faultinject: injected error at "kernel.exec" (hit 3)`,
		Env:     testEnv(),
	}}
	if err := store.Put(f); err != nil {
		t.Fatal(err)
	}
	var waits []time.Duration
	g := New(Config{Sleep: stubSleep(&waits)}, store)
	sum, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if f.Verdict != HarnessArtifact {
		t.Fatalf("verdict = %v, want harness-artifact", f.Verdict)
	}
	if sum.Artifacts != 1 {
		t.Errorf("summary artifacts = %d, want 1", sum.Artifacts)
	}
	if !strings.Contains(f.Note, "provenance") {
		t.Errorf("note %q does not explain the correlation", f.Note)
	}
}

// TestGauntletCrashCorrelation: a finding sharing its iteration with a
// contained harness crash is an artifact, not a kernel bug.
func TestGauntletCrashCorrelation(t *testing.T) {
	store, _ := Open("")
	st := core.NewStats("BVF", kernel.BPFNext)
	st.UnattributedSamples = append(st.UnattributedSamples, core.BugRecord{
		Kind: "kernel-panic", Indicator: kernel.Indicator2, FoundAt: 777,
		Err: "BUG: unable to handle page fault",
	})
	st.HarnessCrashes = append(st.HarnessCrashes, core.HarnessCrash{
		Shard: 0, Iteration: 777, Value: "runtime error: index out of range",
	})
	g := New(Config{Sleep: func(time.Duration) {}}, store)
	if _, err := g.Ingest(st, testEnv()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	f := store.Sorted()[0]
	if f.Verdict != HarnessArtifact {
		t.Errorf("verdict = %v, want harness-artifact via crash correlation", f.Verdict)
	}
}

// TestMinimizeTimeoutGraceful: when every minimization attempt trips the
// watchdog, the gauntlet retries with backoff and then degrades to the
// unminimized reproducer — the finding is still Stable, with a note.
func TestMinimizeTimeoutGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	defer faultinject.Reset()
	f := deterministicFinding(t)
	store, _ := Open("")
	if err := store.Put(f); err != nil {
		t.Fatal(err)
	}
	var waits []time.Duration
	g := New(Config{MinimizeRetries: 1, Sleep: stubSleep(&waits)}, store)

	faultinject.Arm("triage.minimize", faultinject.Fault{Kind: faultinject.Error, Every: 1})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Verdict != Stable {
		t.Fatalf("verdict = %v, want stable despite minimization failure", f.Verdict)
	}
	if f.Minimized != nil {
		t.Error("watchdog-tripped minimization still produced a program")
	}
	if !strings.Contains(f.MinimizeNote, "unminimized") {
		t.Errorf("minimize note %q does not record the fallback", f.MinimizeNote)
	}
	if len(waits) != 1 {
		t.Errorf("minimization retried %d times with backoff, want 1", len(waits))
	}
}
