package triage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/kernel"
)

func storedFinding() *Finding {
	return &Finding{Raw: RawFinding{
		Key:     core.BugKey{ID: 4, Indicator: kernel.Indicator2, Kind: "syscall-warning"},
		FoundAt: 42, Err: "WARNING: something", Env: testEnv(),
	}}
}

// TestStoreRoundTrip: findings persist across a store reopen with their
// stage and evidence intact.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := storedFinding()
	f.Stage = StageCrossConfig
	f.Verdict = Flaky
	f.Replays = []Report{{Attempt: 1, Reproduced: true, Bug: 4, Kind: "syscall-warning"}}
	if err := s.Put(f); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Get(f.Key())
	if got == nil {
		t.Fatal("finding missing after reopen")
	}
	if got.Stage != StageCrossConfig || got.Verdict != Flaky || len(got.Replays) != 1 {
		t.Errorf("round trip lost state: stage=%v verdict=%v replays=%d",
			got.Stage, got.Verdict, len(got.Replays))
	}
}

// TestStoreTornWriteRecovered: a crash between the temp write and the
// rename (injected) leaves the previous consistent finding on disk, and
// the staging file is ignored on reopen.
func TestStoreTornWriteRecovered(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := storedFinding()
	if err := s.Put(f); err != nil {
		t.Fatal(err)
	}

	faultinject.Arm("checkpoint.rename", faultinject.Fault{Kind: faultinject.Error, OnHit: 1})
	f.Stage = StageDone
	f.Verdict = Stable
	if err := s.Put(f); err == nil {
		t.Fatal("want torn-write failure from injected rename fault")
	}
	faultinject.Reset()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Get(f.Key())
	if got == nil {
		t.Fatal("previous finding lost by the torn write")
	}
	if got.Stage != StageReplay || got.Verdict != Pending {
		t.Errorf("torn write leaked partial state: stage=%v verdict=%v", got.Stage, got.Verdict)
	}
	if len(s2.Damaged()) != 0 {
		t.Errorf("torn staging file reported as damaged: %v", s2.Damaged())
	}
}

// TestStoreCorruptFileReported: a damaged finding file is surfaced in
// Damaged and skipped rather than aborting the open or being silently
// forgotten.
func TestStoreCorruptFileReported(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "finding-99-i0-bogus.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("corrupt file decoded into %d findings", s.Len())
	}
	d := s.Damaged()
	if len(d) != 1 || !strings.Contains(d[0], "bogus") {
		t.Errorf("damaged = %v, want the corrupt filename", d)
	}
}

// TestGauntletResumeMidway: the process dies (injected) between the
// replay and cross-config stages; a fresh gauntlet over the reopened
// store completes the finding without redoing the finished stage.
func TestGauntletResumeMidway(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := deterministicFinding(t)
	if err := s.Put(f); err != nil {
		t.Fatal(err)
	}
	g := New(Config{}, s)

	// The first stage boundary passes; the crash hits before the second.
	faultinject.Arm("triage.stage", faultinject.Fault{Kind: faultinject.Error, OnHit: 2})
	if _, err := g.Run(); err == nil {
		t.Fatal("want interruption from injected stage fault")
	}
	faultinject.Reset()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Get(f.Key())
	if got == nil {
		t.Fatal("in-flight finding missing after crash")
	}
	if got.Stage != StageCrossConfig {
		t.Fatalf("persisted stage = %v, want cross-config (replay already durable)", got.Stage)
	}
	if len(got.Replays) != 5 {
		t.Fatalf("persisted replays = %d, want the full first round", len(got.Replays))
	}

	g2 := New(Config{}, s2)
	sum, err := g2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stage != StageDone || got.Verdict != Stable {
		t.Errorf("resumed gauntlet left stage=%v verdict=%v, want done/stable", got.Stage, got.Verdict)
	}
	if len(got.Replays) != 5 {
		t.Errorf("resume redid the replay stage: %d replays", len(got.Replays))
	}
	if sum.Stable != 1 {
		t.Errorf("summary stable = %d, want 1", sum.Stable)
	}
}

// TestStorePutSurfacesDirSyncFailure: creating a new finding file whose
// directory entry cannot be fsynced must fail the Put — the finding may
// vanish on power loss, and the in-memory view must not get ahead of
// what a restarted process would load.
func TestStorePutSurfacesDirSyncFailure(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm("checkpoint.syncdir", faultinject.Fault{Kind: faultinject.Error, OnHit: 1})
	f := storedFinding()
	if err := s.Put(f); err == nil {
		t.Fatal("Put with failing directory fsync reported success")
	}
	if s.Has(f.Key()) {
		t.Fatal("failed Put left the finding in the in-memory view")
	}
	// The fault is gone; the retried Put lands and survives a reopen.
	if err := s.Put(f); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(f.Key()) {
		t.Fatal("finding missing after recovered Put and reopen")
	}
}

// TestStoreCrashSamplesPersist: harness-crash samples survive a reopen,
// a sample recorded again is kept once, and a store that never saw one
// writes no file for them.
func TestStoreCrashSamplesPersist(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddCrashes(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, crashesFile)); !os.IsNotExist(err) {
		t.Fatalf("no samples, yet %s exists (stat: %v)", crashesFile, err)
	}
	a := core.HarnessCrash{Shard: 0, Iteration: 777, Value: "boom"}
	b := core.HarnessCrash{Shard: 1, Iteration: 778, Value: "boom", Program: &isa.Program{
		Type: isa.ProgTypeSocketFilter, Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 0), isa.Exit()},
	}}
	if err := s.AddCrashes([]core.HarnessCrash{a}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCrashes([]core.HarnessCrash{a, b}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Crashes()
	if len(got) != 2 || got[0].Iteration != a.Iteration || got[1].Iteration != b.Iteration ||
		got[1].Program.String() != b.Program.String() {
		t.Errorf("reopened store holds %+v, want the two samples once each", got)
	}
}
