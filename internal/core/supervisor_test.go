package core

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bugs"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/vcache"
)

func supervisedConfig(workers int, seed int64) ParallelConfig {
	cfg := parallelConfig(workers, seed)
	cfg.Supervision = SupervisorConfig{Enabled: true}
	return cfg
}

// TestIterationPanicContained: a panic inside one fuzzing iteration must
// be recorded as a HarnessCrash finding, not abort the campaign; all
// requested iterations still complete.
func TestIterationPanicContained(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("core.iteration", faultinject.Fault{Kind: faultinject.Panic, OnHit: 5})

	c := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 7,
		Supervision: SupervisorConfig{Enabled: true},
	})
	st, err := c.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 50 {
		t.Fatalf("Iterations = %d, want 50", st.Iterations)
	}
	if st.CrashCount != 1 {
		t.Fatalf("CrashCount = %d, want 1", st.CrashCount)
	}
	if len(st.HarnessCrashes) != 1 {
		t.Fatalf("HarnessCrashes = %d, want 1", len(st.HarnessCrashes))
	}
	cr := st.HarnessCrashes[0]
	if !strings.Contains(cr.Value, "injected panic") {
		t.Errorf("crash value = %q, want injected panic", cr.Value)
	}
	if cr.Stack == "" {
		t.Error("crash stack not captured")
	}
	if cr.Iteration != 4 {
		t.Errorf("crash iteration = %d, want 4 (hit 5 is the 5th iteration)", cr.Iteration)
	}
}

// TestHelperBadSizeIsFinding replays campaign seed 12000339 in the cached,
// supervised configuration. There the armed kfunc-backtracking bug lets a
// program call bpf_get_current_comm with a negative size, first at
// iteration 4856 with size -24. The helper model must report that write
// as a KASAN finding rather than panic the harness, so no iteration of
// the campaign is lost to a contained panic.
func TestHelperBadSizeIsFinding(t *testing.T) {
	if raceEnabled {
		t.Skip("long deterministic campaign; concurrency is covered by the parallel-campaign tests under -race")
	}
	st, err := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true,
		Seed: 12000339, Cache: vcache.NewStore(0),
		Supervision: SupervisorConfig{Enabled: true, MaxRestarts: 8, VerifyTimeout: 2 * time.Second, ExecTimeout: 2 * time.Second},
	}).Run(30000)
	if err != nil {
		t.Fatal(err)
	}
	if st.CrashCount != 0 {
		t.Errorf("CrashCount = %d, want 0; first crash: %+v", st.CrashCount, st.HarnessCrashes[0])
	}
	key := BugKey{ID: bugs.Bug3KfuncBacktrack, Indicator: kernel.Indicator1, Kind: "kasan:wild-memory-access"}
	if rec := st.Bugs[key]; rec == nil || rec.FoundAt != 4856 {
		t.Errorf("bad comm write not reported as %v at iteration 4856: %+v", key, rec)
	}
}

// TestIterationPanicPropagatesUnsupervised: with supervision off a panic
// escapes, preserving fail-fast semantics for debugging runs.
func TestIterationPanicPropagatesUnsupervised(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("core.iteration", faultinject.Fault{Kind: faultinject.Panic, OnHit: 3})

	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate with supervision disabled")
		}
	}()
	c := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 7,
	})
	_, _ = c.Run(50)
}

// TestShardPanicRestart: a panic outside iteration containment kills the
// shard goroutine; the supervisor must record it, rebuild the shard with
// a derived seed, refund the lost round quota, and still complete the
// full iteration budget.
func TestShardPanicRestart(t *testing.T) {
	defer faultinject.Reset()
	// Two shards Fire once per round chunk; hit 2 panics exactly one
	// shard in the first round, past the iteration-level recover.
	faultinject.Arm("core.round", faultinject.Fault{Kind: faultinject.Panic, OnHit: 2})

	p := NewParallelCampaign(supervisedConfig(2, 21))
	st, err := p.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 2000 {
		t.Fatalf("Iterations = %d, want 2000 (crashed quota must be refunded)", st.Iterations)
	}
	if st.ShardRestarts != 1 {
		t.Fatalf("ShardRestarts = %d, want 1", st.ShardRestarts)
	}
	if st.CrashCount != 1 {
		t.Fatalf("CrashCount = %d, want 1", st.CrashCount)
	}
	if len(st.HarnessCrashes) != 1 {
		t.Fatalf("HarnessCrashes = %d, want 1", len(st.HarnessCrashes))
	}
	if s := st.HarnessCrashes[0].Shard; s != 0 && s != 1 {
		t.Errorf("crash shard = %d, want 0 or 1", s)
	}
	// The curve must stay consistent on the global axis despite the
	// refund/restart.
	assertCurveConsistent(t, st)
}

// TestShardCircuitBreaker: a shard that crashes on every round exhausts
// MaxRestarts and is retired; with every shard retired Run fails — but
// still returns the (empty here) merged statistics rather than nil.
func TestShardCircuitBreaker(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("core.round", faultinject.Fault{Kind: faultinject.Panic, Every: 1})

	cfg := supervisedConfig(2, 5)
	cfg.Supervision.MaxRestarts = 2
	p := NewParallelCampaign(cfg)
	st, err := p.Run(2000)
	if err == nil {
		t.Fatal("want error after all shards retired")
	}
	if !strings.Contains(err.Error(), "retired") {
		t.Errorf("error = %v, want all-shards-retired", err)
	}
	if st == nil {
		t.Fatal("Run must return merged statistics alongside the error")
	}
	if st.CrashCount != 6 {
		// 2 shards × (MaxRestarts=2 restarts + the final crash) = 6.
		t.Errorf("CrashCount = %d, want 6", st.CrashCount)
	}
	if st.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0 (every round crashed)", st.Iterations)
	}
}

// TestVerifyWatchdog: a stalled verification (injected delay beyond the
// wall-clock deadline) must be skipped and counted, not hang the shard
// or pollute the rejection histogram.
func TestVerifyWatchdog(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("verifier.verify", faultinject.Fault{
		Kind: faultinject.Delay, Every: 1, Delay: 10 * time.Millisecond,
	})

	c := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 7,
		Supervision: SupervisorConfig{Enabled: true, VerifyTimeout: 5 * time.Millisecond},
	})
	st, err := c.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.WatchdogTrips["verify"] != 3 {
		t.Fatalf("WatchdogTrips[verify] = %d, want 3", st.WatchdogTrips["verify"])
	}
	if st.Accepted != 0 {
		t.Errorf("Accepted = %d, want 0 (every verification timed out)", st.Accepted)
	}
	if len(st.TimeoutSamples) != 3 {
		t.Fatalf("TimeoutSamples = %d, want 3", len(st.TimeoutSamples))
	}
	for _, s := range st.TimeoutSamples {
		if s.Stage != "verify" || s.Program == nil {
			t.Errorf("timeout sample %+v: want stage verify with program", s)
		}
	}
	if n := len(st.ErrnoHist); n != 0 {
		t.Errorf("ErrnoHist has %d entries; timeouts must not count as rejections", n)
	}
}

// TestExecWatchdog: a stalled execution trips the runtime watchdog; the
// program's remaining runs are skipped and the trip is counted.
func TestExecWatchdog(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm("runtime.exec", faultinject.Fault{
		Kind: faultinject.Delay, Every: 1, Delay: 10 * time.Millisecond,
	})

	// MutateBatch 1: classic scheduling. A 20-iteration budget can land
	// entirely inside one sibling batch of a rejected parent, leaving no
	// accepted program for the watchdog to trip on.
	c := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 7,
		MutateBatch: 1,
		Supervision: SupervisorConfig{Enabled: true, ExecTimeout: 5 * time.Millisecond},
	})
	st, err := c.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted == 0 {
		t.Fatal("no accepted programs; test needs at least one execution")
	}
	if st.WatchdogTrips["exec"] == 0 {
		t.Fatal("exec watchdog never tripped")
	}
	for _, s := range st.TimeoutSamples {
		if s.Stage != "exec" {
			t.Errorf("timeout sample stage = %q, want exec", s.Stage)
		}
	}
}

// TestSupervisionBitIdentical is the acceptance criterion: with no
// faults armed, a fixed-seed campaign produces bit-identical statistics
// with supervision enabled and disabled — supervision only observes.
func TestSupervisionBitIdentical(t *testing.T) {
	run := func(supervised bool) *Stats {
		cfg := parallelConfig(2, 99)
		if supervised {
			cfg.Supervision = SupervisorConfig{Enabled: true}
		}
		p := NewParallelCampaign(cfg)
		st, err := p.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(false), run(true)
	if a.Iterations != b.Iterations || a.Accepted != b.Accepted {
		t.Errorf("iters/accepted diverged: %d/%d vs %d/%d",
			a.Iterations, a.Accepted, b.Iterations, b.Accepted)
	}
	if a.Coverage.Count() != b.Coverage.Count() {
		t.Errorf("coverage diverged: %d vs %d", a.Coverage.Count(), b.Coverage.Count())
	}
	ids1, ids2 := a.BugIDs(), b.BugIDs()
	if len(ids1) != len(ids2) {
		t.Fatalf("bug sets diverged: %v vs %v", ids1, ids2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] || a.BugByID(ids1[i]).FoundAt != b.BugByID(ids2[i]).FoundAt {
			t.Fatalf("bugs diverged: %v@%d vs %v@%d", ids1[i],
				a.BugByID(ids1[i]).FoundAt, ids2[i], b.BugByID(ids2[i]).FoundAt)
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
	for k, v := range a.ErrnoHist {
		if b.ErrnoHist[k] != v {
			t.Fatalf("ErrnoHist[%d] diverged: %d vs %d", k, v, b.ErrnoHist[k])
		}
	}
	if b.CrashCount != 0 || b.ShardRestarts != 0 || len(b.WatchdogTrips) != 0 {
		t.Errorf("supervised no-fault run recorded incidents: %+v %+v",
			b.CrashCount, b.WatchdogTrips)
	}
}

// TestShardErrorPartialResults covers the lost-results fix: when one
// shard fails, Run must still merge and return the healthy shards'
// statistics alongside the error; a subsequent Run on the same campaign
// continues a consistent global iteration axis.
func TestShardErrorPartialResults(t *testing.T) {
	defer faultinject.Reset()
	// Exactly one shard's first kernel build fails.
	faultinject.Arm("core.recycle", faultinject.Fault{Kind: faultinject.Error, OnHit: 1})

	p := NewParallelCampaign(parallelConfig(2, 13))
	st, err := p.Run(2000)
	if err == nil {
		t.Fatal("want shard error")
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("error = %v, want injected fault", err)
	}
	if st == nil {
		t.Fatal("Run must return the healthy shards' statistics alongside the error")
	}
	if st.Iterations != 512 {
		t.Fatalf("Iterations = %d, want 512 (the healthy shard's round)", st.Iterations)
	}

	// Axis-consistency regression: with the fault cleared, the same
	// campaign must be able to keep running and keep its accounting
	// consistent.
	faultinject.Reset()
	st2, err := p.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Iterations != 1512 {
		t.Fatalf("Iterations = %d, want 1512 (512 carried + 1000 new)", st2.Iterations)
	}
	assertCurveConsistent(t, st2)
}

// assertCurveConsistent checks the merged coverage curve is strictly
// increasing in iterations and non-decreasing in branches.
func assertCurveConsistent(t *testing.T, st *Stats) {
	t.Helper()
	for i := 1; i < len(st.Curve); i++ {
		if st.Curve[i].Iteration <= st.Curve[i-1].Iteration {
			t.Fatalf("curve iterations not increasing at %d: %+v", i, st.Curve)
		}
		if st.Curve[i].Branches < st.Curve[i-1].Branches {
			t.Fatalf("curve branches decreased at %d: %+v", i, st.Curve)
		}
	}
}

// TestReporterStopIdempotent: the reporter's stop function must be safe
// to call more than once, with and without a Progress writer.
func TestReporterStopIdempotent(t *testing.T) {
	p := NewParallelCampaign(parallelConfig(2, 1))
	stop := p.startReporter() // nil Progress: no-op closure
	stop()
	stop()

	cfg := parallelConfig(2, 1)
	cfg.Progress = discardWriter{}
	p = NewParallelCampaign(cfg)
	stop = p.startReporter()
	time.Sleep(5 * time.Millisecond)
	stop()
	stop()
}

// TestReporterStageShares: the progress line carries a share for every
// stage a campaign reports, so an oracle campaign's replay time shows up
// as an oracle share instead of vanishing from the denominator.
func TestReporterStageShares(t *testing.T) {
	cfg := parallelConfig(2, 1)
	cfg.Oracle = true
	out := &lockedBuffer{}
	cfg.Progress = out
	if _, err := NewParallelCampaign(cfg).Run(1000); err != nil {
		t.Fatal(err)
	}
	lines := out.String()
	for _, stage := range stageNames {
		if !strings.Contains(lines, " "+stage+" ") {
			t.Errorf("no %s share in the progress lines:\n%s", stage, lines)
		}
	}
	if !regexp.MustCompile(` oracle [1-9][0-9]*%`).MatchString(lines) {
		t.Errorf("oracle share never above 0%%:\n%s", lines)
	}
}

// TestReporterLastLine: a campaign shorter than one report interval
// still gets one progress line, printed when the reporter stops, and it
// counts every iteration the campaign ran.
func TestReporterLastLine(t *testing.T) {
	cfg := parallelConfig(2, 1)
	out := &lockedBuffer{}
	cfg.Progress = out
	p := NewParallelCampaign(cfg)
	if _, err := p.Run(3000); err != nil {
		t.Fatal(err)
	}
	line := out.String()
	if n := strings.Count(line, "\n"); n != 1 {
		t.Fatalf("got %d progress lines, want exactly 1:\n%s", n, line)
	}
	m := regexp.MustCompile(`^\[ *\d+s\] (\d+) iters `).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("progress line has an unexpected format: %q", line)
	}
	if got, want := m[1], strconv.Itoa(p.Stats().Iterations); got != want {
		t.Errorf("last line counts %s iterations, Stats().Iterations = %s: %q", got, want, line)
	}
}

// lockedBuffer is an io.Writer safe to read while the reporter writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

type discardWriter struct{}

func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestCorpusPickEmpty: picking from an empty corpus must return nil, not
// panic on the zero total weight.
func TestCorpusPickEmpty(t *testing.T) {
	c := NewCorpus(4)
	if got := c.Pick(nil); got != nil {
		t.Fatalf("Pick on empty corpus = %v, want nil", got)
	}
}
