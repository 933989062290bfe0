package orchestrator

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
)

// testSpec is the fixed campaign every test distributes: small enough to
// run in milliseconds, large enough to find real bugs in the simulated
// kernel.
func testSpec() CampaignSpec {
	return CampaignSpec{
		Tool: "bvf", Version: "bpf-next", Sanitize: true,
		Seed: 7, TotalIters: 60, Units: 3, SyncEvery: 20,
	}
}

// mustVersion parses a valid spec's kernel version.
func mustVersion(spec CampaignSpec) kernel.Version {
	kv, err := spec.KernelVersion()
	if err != nil {
		panic(err)
	}
	return kv
}

// fakeClock is an injectable coordinator clock, so lease-expiry tests
// advance time instead of sleeping through real TTLs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// runUnit executes one unit exactly the way a worker would and returns
// the encoded result payload.
func runUnit(t *testing.T, spec CampaignSpec, u Unit) []byte {
	t.Helper()
	st, err := SpecRunner(spec, u, func(int) {}, func() bool { return false })
	if err != nil {
		t.Fatalf("unit %d run: %v", u.ID, err)
	}
	payload, err := EncodeStats(st)
	if err != nil {
		t.Fatalf("unit %d encode: %v", u.ID, err)
	}
	return payload
}

func newTestCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

// newTestManager builds a one-shot manager (workers are dismissed once
// every campaign is terminal) and submits the given specs, returning the
// assigned campaign IDs in order.
func newTestManager(t *testing.T, cfg ManagerConfig, specs ...CampaignSpec) (*Manager, []string) {
	t.Helper()
	cfg.ExitWhenIdle = true
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	var ids []string
	for i, spec := range specs {
		resp, err := m.Submit(SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatalf("submit campaign %d: %v", i, err)
		}
		ids = append(ids, resp.ID)
	}
	return m, ids
}

func TestSplitUnitsMatchesShardSplit(t *testing.T) {
	for _, tc := range []struct{ total, units int }{
		{60, 3}, {61, 3}, {62, 3}, {7, 4}, {1, 1}, {1000, 7},
	} {
		spec := testSpec()
		spec.TotalIters, spec.Units = tc.total, tc.units
		units := SplitUnits(spec)
		sum := 0
		for i, u := range units {
			// The same arithmetic ParallelCampaign.Run applies per shard.
			want := tc.total / tc.units
			if i < tc.total%tc.units {
				want++
			}
			if u.Quota != want {
				t.Errorf("total=%d units=%d: unit %d quota = %d, want %d", tc.total, tc.units, i, u.Quota, want)
			}
			if u.Seed != spec.Seed+int64(i) {
				t.Errorf("unit %d seed = %d, want %d", i, u.Seed, spec.Seed+int64(i))
			}
			sum += u.Quota
		}
		if sum != tc.total {
			t.Errorf("total=%d units=%d: quotas sum to %d", tc.total, tc.units, sum)
		}
	}
}

// TestCampaignSpecConfig pins the one mapping from a spec onto the
// configuration bvf shards and bvfd units run: sanitation only for BVF,
// no mutation for the random-bytes fuzzer, and loud errors for what a
// coordinator cannot run.
func TestCampaignSpecConfig(t *testing.T) {
	for _, tc := range []struct {
		tool     string
		name     string
		sanitize bool
		mutate   int
	}{
		{"bvf", "BVF", true, 0},
		{"syzkaller", "Syzkaller", false, 0},
		{"buzzer", "Buzzer", false, 0},
		{"buzzer-random", "Buzzer(random)", false, -1},
	} {
		spec := testSpec()
		spec.Tool, spec.Oracle = tc.tool, true
		cc, err := spec.CampaignConfig()
		if err != nil {
			t.Fatalf("%s: %v", tc.tool, err)
		}
		if cc.Source.Name() != tc.name || cc.Sanitize != tc.sanitize || cc.MutateBias != tc.mutate ||
			cc.Version != kernel.BPFNext || !cc.Oracle || cc.Seed != spec.Seed {
			t.Errorf("%s: config = {Source: %s, Sanitize: %v, MutateBias: %d, Version: %v, Oracle: %v, Seed: %d}",
				tc.tool, cc.Source.Name(), cc.Sanitize, cc.MutateBias, cc.Version, cc.Oracle, cc.Seed)
		}
	}
	for name, mutate := range map[string]func(*CampaignSpec){
		"unknown tool":    func(s *CampaignSpec) { s.Tool = "afl" },
		"unknown version": func(s *CampaignSpec) { s.Version = "v4.19" },
		"no units":        func(s *CampaignSpec) { s.Units = 0 },
		"no budget":       func(s *CampaignSpec) { s.TotalIters = 0 },
	} {
		spec := testSpec()
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, spec)
		}
	}
}

// TestLeaseExpiryRefundsFullQuota: a worker that stops heartbeating loses
// its lease at the TTL, and the unit returns to pending with its FULL
// quota — the re-grant carries a fresh epoch so the first holder is
// fenced out.
func TestLeaseExpiryRefundsFullQuota(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, CoordinatorConfig{
		Spec: testSpec(), LeaseTTL: 10 * time.Second, Now: clock.Now,
	})

	first := c.Lease(LeaseRequest{Worker: "a"})
	if first.Status != StatusLease || first.Unit.ID != 0 {
		t.Fatalf("first lease = %+v, want unit 0", first)
	}

	// Heartbeats inside the TTL keep the lease alive.
	clock.Advance(8 * time.Second)
	if hb := c.Heartbeat(HeartbeatRequest{Worker: "a", UnitID: 0, Token: first.Token, Iters: 5}); hb.Status != StatusOK {
		t.Fatalf("in-TTL heartbeat = %q, want ok", hb.Status)
	}

	// Silence past the TTL expires the lease; the next lease call from
	// another worker gets unit 0 back, full quota, new epoch.
	clock.Advance(11 * time.Second)
	second := c.Lease(LeaseRequest{Worker: "b"})
	if second.Status != StatusLease || second.Unit.ID != 0 {
		t.Fatalf("post-expiry lease = %+v, want unit 0 re-granted", second)
	}
	if second.Unit.Quota != first.Unit.Quota {
		t.Fatalf("refunded quota = %d, want full %d", second.Unit.Quota, first.Unit.Quota)
	}
	if second.Token == first.Token {
		t.Fatalf("re-grant reused token %s", second.Token)
	}
	if got := c.Refunds(); got != 1 {
		t.Fatalf("refunds = %d, want 1", got)
	}
}

// TestZombieFenced: the dead-but-not-really worker comes back after its
// lease was re-issued. Its heartbeat and its full, perfectly valid result
// must both be rejected — the unit belongs to the new holder.
func TestZombieFenced(t *testing.T) {
	spec := testSpec()
	clock := newFakeClock()
	c := newTestCoordinator(t, CoordinatorConfig{
		Spec: spec, LeaseTTL: 10 * time.Second, Now: clock.Now,
	})

	zombie := c.Lease(LeaseRequest{Worker: "zombie"})
	clock.Advance(11 * time.Second)
	fresh := c.Lease(LeaseRequest{Worker: "fresh"})
	if fresh.Unit.ID != zombie.Unit.ID {
		t.Fatalf("expected the expired unit re-granted, got %+v", fresh)
	}

	if hb := c.Heartbeat(HeartbeatRequest{Worker: "zombie", UnitID: 0, Token: zombie.Token}); hb.Status != StatusFenced {
		t.Fatalf("zombie heartbeat = %q, want fenced", hb.Status)
	}

	payload := runUnit(t, spec, zombie.Unit)
	rr, err := c.Result(ResultRequest{Worker: "zombie", UnitID: 0, Token: zombie.Token, Stats: payload})
	if err != nil || rr.Status != StatusFenced {
		t.Fatalf("zombie result = (%+v, %v), want fenced", rr, err)
	}
	if got := c.Merged().Iterations; got != 0 {
		t.Fatalf("fenced result leaked %d iterations into the merge", got)
	}

	// The legitimate holder's result is accepted.
	rr, err = c.Result(ResultRequest{Worker: "fresh", UnitID: 0, Token: fresh.Token, Stats: payload})
	if err != nil || rr.Status != StatusAccepted {
		t.Fatalf("fresh result = (%+v, %v), want accepted", rr, err)
	}
	if got, want := c.Merged().Iterations, fresh.Unit.Quota; got != want {
		t.Fatalf("merged iterations = %d, want %d", got, want)
	}
}

// TestDuplicateResultIdempotent: a worker that lost the acknowledgment on
// the wire retries its submission; the coordinator re-acknowledges
// without double-merging.
func TestDuplicateResultIdempotent(t *testing.T) {
	spec := testSpec()
	c := newTestCoordinator(t, CoordinatorConfig{Spec: spec})

	lr := c.Lease(LeaseRequest{Worker: "a"})
	payload := runUnit(t, spec, lr.Unit)
	req := ResultRequest{Worker: "a", UnitID: lr.Unit.ID, Token: lr.Token, Stats: payload}

	for i := 0; i < 3; i++ {
		rr, err := c.Result(req)
		if err != nil || rr.Status != StatusAccepted {
			t.Fatalf("submission %d = (%+v, %v), want accepted", i, rr, err)
		}
	}
	if got, want := c.Merged().Iterations, lr.Unit.Quota; got != want {
		t.Fatalf("merged iterations after duplicates = %d, want %d (merged once)", got, want)
	}

	// A duplicate under a DIFFERENT token (a zombie's copy of the same
	// unit) is fenced, not re-acknowledged.
	bad := req
	bad.Token.Epoch += 40
	rr, err := c.Result(bad)
	if err != nil || rr.Status != StatusFenced {
		t.Fatalf("wrong-token duplicate = (%+v, %v), want fenced", rr, err)
	}
}

// TestResultQuotaMismatchRejected: a result that did not execute exactly
// its quota is a protocol error, not a lease event.
func TestResultQuotaMismatchRejected(t *testing.T) {
	spec := testSpec()
	c := newTestCoordinator(t, CoordinatorConfig{Spec: spec})
	lr := c.Lease(LeaseRequest{Worker: "a"})

	short := core.NewStats(spec.Tool, mustVersion(spec))
	short.Iterations = lr.Unit.Quota - 1
	payload, err := EncodeStats(short)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ResultRequest{Worker: "a", UnitID: lr.Unit.ID, Token: lr.Token, Stats: payload}); err == nil {
		t.Fatal("short result accepted, want error")
	}
	// The lease survives the bad payload: the same worker can still
	// submit the real thing.
	good := runUnit(t, spec, lr.Unit)
	rr, err := c.Result(ResultRequest{Worker: "a", UnitID: lr.Unit.ID, Token: lr.Token, Stats: good})
	if err != nil || rr.Status != StatusAccepted {
		t.Fatalf("good result after bad payload = (%+v, %v), want accepted", rr, err)
	}
}

// TestCoordinatorRestartFencesOldLeases: the coordinator dies and comes
// back from its checkpoint. Done units stay done, outstanding leases are
// gone (re-leased under a bumped incarnation), and the dead incarnation's
// tokens are fenced everywhere.
func TestCoordinatorRestartFencesOldLeases(t *testing.T) {
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "leases.ckpt")

	c1 := newTestCoordinator(t, CoordinatorConfig{Spec: spec, CheckpointPath: path})
	lr0 := c1.Lease(LeaseRequest{Worker: "a"})
	rr, err := c1.Result(ResultRequest{Worker: "a", UnitID: 0, Token: lr0.Token, Stats: runUnit(t, spec, lr0.Unit)})
	if err != nil || rr.Status != StatusAccepted {
		t.Fatalf("unit 0 = (%+v, %v)", rr, err)
	}
	lr1 := c1.Lease(LeaseRequest{Worker: "a"}) // outstanding when c1 "dies"
	if lr1.Unit.ID != 1 {
		t.Fatalf("second lease = %+v, want unit 1", lr1)
	}

	// Coordinator restarts from the checkpoint.
	c2 := newTestCoordinator(t, CoordinatorConfig{Spec: spec, CheckpointPath: path})
	if got, want := c2.Merged().Iterations, lr0.Unit.Quota; got != want {
		t.Fatalf("restored iterations = %d, want %d", got, want)
	}

	// The pre-crash lease on unit 1 is gone, and its token is from a dead
	// incarnation: fenced on heartbeat and on result.
	if hb := c2.Heartbeat(HeartbeatRequest{Worker: "a", UnitID: 1, Token: lr1.Token}); hb.Status != StatusFenced {
		t.Fatalf("old-incarnation heartbeat = %q, want fenced", hb.Status)
	}
	payload1 := runUnit(t, spec, lr1.Unit)
	if rr, err := c2.Result(ResultRequest{Worker: "a", UnitID: 1, Token: lr1.Token, Stats: payload1}); err != nil || rr.Status != StatusFenced {
		t.Fatalf("old-incarnation result = (%+v, %v), want fenced", rr, err)
	}

	// Units 1 and 2 re-lease under the new incarnation and complete.
	for i := 1; i <= 2; i++ {
		lr := c2.Lease(LeaseRequest{Worker: "b"})
		if lr.Status != StatusLease || lr.Unit.ID != i {
			t.Fatalf("re-lease %d = %+v", i, lr)
		}
		if lr.Token.Incarnation <= lr1.Token.Incarnation {
			t.Fatalf("incarnation not bumped: %s after %s", lr.Token, lr1.Token)
		}
		rr, err := c2.Result(ResultRequest{Worker: "b", UnitID: i, Token: lr.Token, Stats: runUnit(t, spec, lr.Unit)})
		if err != nil || rr.Status != StatusAccepted {
			t.Fatalf("unit %d = (%+v, %v)", i, rr, err)
		}
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("campaign not done after all units completed")
	}
	if got, want := c2.Merged().Iterations, spec.TotalIters; got != want {
		t.Fatalf("final iterations = %d, want %d", got, want)
	}
}

// TestTornCheckpointLoud: external damage to the lease-table checkpoint
// must fail coordinator construction loudly, never silently restart the
// campaign (which would re-run done units and double-bill the operator).
func TestTornCheckpointLoud(t *testing.T) {
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "leases.ckpt")
	c1 := newTestCoordinator(t, CoordinatorConfig{Spec: spec, CheckpointPath: path})
	lr := c1.Lease(LeaseRequest{Worker: "a"})
	if rr, err := c1.Result(ResultRequest{Worker: "a", UnitID: 0, Token: lr.Token, Stats: runUnit(t, spec, lr.Unit)}); err != nil || rr.Status != StatusAccepted {
		t.Fatalf("unit 0 = (%+v, %v)", rr, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Spec: spec, CheckpointPath: path}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated checkpoint: err = %v, want ErrCorrupt", err)
	}

	// Bit flip in the payload.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{Spec: spec, CheckpointPath: path}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("bit-flipped checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointSaveFailureTolerated: a coordinator whose checkpoint
// writes start failing keeps accepting results — determinism makes a
// restart from an older table safe (it just re-runs units), so losing
// durability must not lose availability.
func TestCheckpointSaveFailureTolerated(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "leases.ckpt")
	c := newTestCoordinator(t, CoordinatorConfig{Spec: spec, CheckpointPath: path})

	faultinject.Arm("orch.checkpoint", faultinject.Fault{Kind: faultinject.Error})
	for i := 0; i < spec.Units; i++ {
		lr := c.Lease(LeaseRequest{Worker: "a"})
		rr, err := c.Result(ResultRequest{Worker: "a", UnitID: lr.Unit.ID, Token: lr.Token, Stats: runUnit(t, spec, lr.Unit)})
		if err != nil || rr.Status != StatusAccepted {
			t.Fatalf("unit %d with failing checkpoints = (%+v, %v), want accepted", i, rr, err)
		}
	}
	if faultinject.Fired("orch.checkpoint") == 0 {
		t.Fatal("checkpoint fault never fired")
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not done despite failing checkpoints")
	}
	if got, want := c.Merged().Iterations, spec.TotalIters; got != want {
		t.Fatalf("iterations = %d, want %d", got, want)
	}
}

// TestClientRetriesTransientServerFaults: a 500 from the coordinator (the
// "orch.server" fault point) is retried with backoff and succeeds; the
// caller never sees the blip.
func TestClientRetriesTransientServerFaults(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m, _ := newTestManager(t, ManagerConfig{}, testSpec())
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var slept []time.Duration
	cl := NewClient(srv.URL, "w1")
	cl.Sleep = func(d time.Duration) { slept = append(slept, d) }

	faultinject.Arm("orch.server", faultinject.Fault{Kind: faultinject.Error, OnHit: 1})
	reg, err := cl.Register(RegisterRequest{Worker: "w1"})
	if err != nil {
		t.Fatalf("register through a faulting server: %v", err)
	}
	if reg.Worker != "w1" {
		t.Fatalf("worker = %q", reg.Worker)
	}
	if len(slept) != 1 {
		t.Fatalf("retry sleeps = %v, want exactly one backoff", slept)
	}

	// Same for the client-side fault point (e.g. connection refused).
	faultinject.Reset()
	slept = nil
	faultinject.Arm("orch.client", faultinject.Fault{Kind: faultinject.Error, OnHit: 1})
	if _, err := cl.Lease(LeaseRequest{Worker: "w1"}); err != nil {
		t.Fatalf("lease through a faulting transport: %v", err)
	}
	if len(slept) != 1 {
		t.Fatalf("retry sleeps = %v, want exactly one backoff", slept)
	}
}

// TestClientHardErrorNotRetried: a 400 (protocol rejection) must surface
// immediately — retrying a rejected payload can never succeed.
func TestClientHardErrorNotRetried(t *testing.T) {
	m, _ := newTestManager(t, ManagerConfig{}, testSpec())
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var slept []time.Duration
	cl := NewClient(srv.URL, "w1")
	cl.Sleep = func(d time.Duration) { slept = append(slept, d) }

	lr, err := cl.Lease(LeaseRequest{Worker: "w1"})
	if err != nil || lr.Status != StatusLease {
		t.Fatalf("lease = (%+v, %v)", lr, err)
	}
	_, err = cl.Result(ResultRequest{Worker: "w1", Campaign: lr.Campaign, UnitID: lr.Unit.ID, Token: lr.Token, Stats: []byte("junk")})
	if err == nil {
		t.Fatal("undecodable result accepted")
	}
	if len(slept) != 0 {
		t.Fatalf("client retried a hard error: sleeps = %v", slept)
	}
}

// TestWorkerAbandonsFencedUnit: a worker whose heartbeat comes back
// fenced walks away from the unit mid-execution and leases the next one
// instead of dying or submitting doomed results.
func TestWorkerAbandonsFencedUnit(t *testing.T) {
	spec := testSpec()
	spec.Units = 1
	spec.TotalIters = 8
	clock := newFakeClock()
	m, ids := newTestManager(t, ManagerConfig{
		LeaseTTL: 10 * time.Second, Now: clock.Now,
	}, spec)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	attempts := 0
	leased := make(chan struct{}, 8)
	runner := func(sp CampaignSpec, u Unit, progress func(int), abort func() bool) (*core.Stats, error) {
		attempts++
		leased <- struct{}{}
		if attempts == 1 {
			// First lease: stall until the heartbeat goroutine notices the
			// fence (the test expires the lease underneath us).
			for !abort() {
				time.Sleep(time.Millisecond)
			}
			return nil, ErrUnitAbandoned
		}
		st := core.NewStats(sp.Tool, mustVersion(sp))
		st.Iterations = u.Quota
		progress(u.Quota)
		return st, nil
	}
	w := NewWorker(WorkerConfig{
		Name: "w1", Client: NewClient(srv.URL, "w1"),
		Runner: runner, HeartbeatEvery: 2 * time.Millisecond,
	})

	done := make(chan error, 1)
	go func() { done <- w.Run() }()

	select {
	case <-leased:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never leased the unit")
	}
	// Expire the lease under the running worker; its next heartbeat is
	// fenced, flipping the abort flag.
	clock.Advance(11 * time.Second)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("worker did not finish")
	}
	if attempts != 2 {
		t.Fatalf("runner attempts = %d, want 2 (abandon, then complete)", attempts)
	}
	if got := m.Refunds(); got != 1 {
		t.Fatalf("refunds = %d, want 1", got)
	}
	if got, want := m.MergedStats(ids[0]).Iterations, spec.TotalIters; got != want {
		t.Fatalf("iterations = %d, want %d", got, want)
	}
}

// TestDistributedMatchesSingleProcess is the acceptance criterion: a
// fixed-(seed, workers, budget) campaign run through the orchestrator —
// with a worker killed mid-lease by an injected fault — produces the same
// total iteration count and the same deduplicated BugKey set as an
// unfaulted single-process ParallelCampaign run.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	spec := CampaignSpec{
		Tool: "bvf", Version: "bpf-next", Sanitize: true,
		Seed: 42, TotalIters: 360, Units: 3, SyncEvery: 60,
	}
	ver, err := spec.KernelVersion()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the equivalent single-process campaign. SyncEvery is the
	// full per-shard quota, so the whole run is one round and shards never
	// exchange corpus entries — each shard's trajectory is a function of
	// (seed, quota) alone, exactly like a distributed unit.
	ref := core.NewParallelCampaign(core.ParallelConfig{
		CampaignConfig: core.CampaignConfig{
			Source: core.BVFSource(ver.HasKfuncs()), Version: ver,
			Sanitize: true, Seed: spec.Seed,
			Supervision: core.SupervisorConfig{Enabled: true},
		},
		Workers:   spec.Units,
		SyncEvery: spec.TotalIters / spec.Units,
	})
	refStats, err := ref.Run(spec.TotalIters)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}

	// Distributed run through a manager with a persistent state dir (the
	// campaign gets its own findings registry under it).
	m, ids := newTestManager(t, ManagerConfig{
		StateDir:     t.TempDir(),
		LeaseTTL:     1500 * time.Millisecond,
		PollInterval: 25 * time.Millisecond,
	}, spec)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	// The doomed worker dies mid-lease: the "orch.worker.unit" fault
	// kills it after its first 60-iteration round, 60/120 through unit 0.
	// Its partial work is discarded; the lease expires and the unit is
	// re-leased — with its FULL quota — to a surviving worker.
	faultinject.Arm("orch.worker.unit", faultinject.Fault{Kind: faultinject.Error, OnHit: 1})
	doomed := NewWorker(WorkerConfig{
		Name: "doomed", Client: NewClient(srv.URL, "doomed"),
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err := doomed.Run(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("doomed worker: err = %v, want injected death", err)
	}
	if doomed.UnitsDone() != 0 {
		t.Fatalf("doomed worker submitted %d units", doomed.UnitsDone())
	}

	// Two survivors finish the campaign, including re-running unit 0
	// after its lease expires (~1.5s of wall clock).
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorker(WorkerConfig{
				Client:         NewClient(srv.URL, "survivor"),
				HeartbeatEvery: 50 * time.Millisecond,
			})
			errs[i] = w.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
	}
	select {
	case <-m.Done():
	default:
		t.Fatal("campaign not done after all workers exited")
	}
	if got := m.Refunds(); got < 1 {
		t.Fatalf("refunds = %d, want at least the doomed worker's lease", got)
	}

	// Equivalence: same iteration total, same deduplicated BugKey set,
	// same bug discovery points, same merged coverage.
	merged := m.MergedStats(ids[0])
	if merged.Iterations != refStats.Iterations {
		t.Errorf("iterations = %d, reference = %d", merged.Iterations, refStats.Iterations)
	}
	if merged.Accepted != refStats.Accepted {
		t.Errorf("accepted = %d, reference = %d", merged.Accepted, refStats.Accepted)
	}
	if got, want := len(merged.Bugs), len(refStats.Bugs); got != want {
		t.Errorf("bug count = %d, reference = %d", got, want)
	}
	for key, want := range refStats.Bugs {
		got := merged.Bugs[key]
		if got == nil {
			t.Errorf("bug %v missing from distributed run", key)
			continue
		}
		if got.FoundAt != want.FoundAt {
			t.Errorf("bug %v FoundAt = %d, reference = %d", key, got.FoundAt, want.FoundAt)
		}
	}
	for key := range merged.Bugs {
		if refStats.Bugs[key] == nil {
			t.Errorf("distributed run found extra bug %v", key)
		}
	}
	if got, want := merged.Coverage.Count(), refStats.Coverage.Count(); got != want {
		t.Errorf("coverage = %d branches, reference = %d", got, want)
	}
	// The campaign's registry deduplicated across units: one finding per
	// unique BugKey, none damaged.
	store := m.Store(ids[0])
	if got, want := store.Len(), len(refStats.Bugs); got != want {
		t.Errorf("findings store has %d entries, want %d", got, want)
	}
	if d := store.Damaged(); len(d) != 0 {
		t.Errorf("damaged findings: %v", d)
	}
}

// TestWorkerDiesAfterExecutionBeforeSubmit is the strongest refund case:
// the worker finishes the whole unit, then dies holding the unsubmitted
// result. The refunded re-run must reproduce the statistics exactly.
func TestWorkerDiesAfterExecutionBeforeSubmit(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	spec := testSpec()
	spec.Units = 1
	spec.TotalIters = 20
	clock := newFakeClock()
	m, ids := newTestManager(t, ManagerConfig{
		LeaseTTL: 10 * time.Second, Now: clock.Now,
	}, spec)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	faultinject.Arm("orch.worker.exec", faultinject.Fault{Kind: faultinject.Error, OnHit: 1})
	doomed := NewWorker(WorkerConfig{Client: NewClient(srv.URL, "doomed"), HeartbeatEvery: time.Hour})
	if err := doomed.Run(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("doomed worker: err = %v, want injected death", err)
	}
	if got := m.MergedStats(ids[0]).Iterations; got != 0 {
		t.Fatalf("dead worker's unsubmitted work leaked: %d iterations", got)
	}

	clock.Advance(11 * time.Second) // expire the orphaned lease
	w := NewWorker(WorkerConfig{Client: NewClient(srv.URL, "w2"), HeartbeatEvery: time.Hour})
	if err := w.Run(); err != nil {
		t.Fatalf("recovery worker: %v", err)
	}
	if got := m.Refunds(); got != 1 {
		t.Fatalf("refunds = %d, want 1", got)
	}
	if got, want := m.MergedStats(ids[0]).Iterations, spec.TotalIters; got != want {
		t.Fatalf("iterations = %d, want %d", got, want)
	}
}
