package orchestrator

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// refRun executes the single-process ParallelCampaign a distributed spec
// must be bit-identical to. SyncEvery is the full per-shard quota, so
// shards never exchange corpus entries — each shard's trajectory is a
// function of (seed, quota) alone, exactly like a distributed unit.
func refRun(t *testing.T, spec CampaignSpec) *core.Stats {
	t.Helper()
	ver, err := spec.KernelVersion()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewParallelCampaign(core.ParallelConfig{
		CampaignConfig: core.CampaignConfig{
			Source: core.BVFSource(ver.HasKfuncs()), Version: ver,
			Sanitize: spec.Sanitize, Seed: spec.Seed,
			Supervision: core.SupervisorConfig{Enabled: true},
		},
		Workers:   spec.Units,
		SyncEvery: spec.TotalIters / spec.Units,
	})
	st, err := ref.Run(spec.TotalIters)
	if err != nil {
		t.Fatalf("reference campaign (seed %d): %v", spec.Seed, err)
	}
	return st
}

// assertEquivalent checks bit-identical campaign results: iteration and
// acceptance totals, the deduplicated BugKey set with discovery points,
// and merged coverage.
func assertEquivalent(t *testing.T, label string, got, want *core.Stats) {
	t.Helper()
	if got == nil {
		t.Errorf("%s: no merged stats", label)
		return
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations = %d, reference = %d", label, got.Iterations, want.Iterations)
	}
	if got.Accepted != want.Accepted {
		t.Errorf("%s: accepted = %d, reference = %d", label, got.Accepted, want.Accepted)
	}
	for key, ref := range want.Bugs {
		rec := got.Bugs[key]
		if rec == nil {
			t.Errorf("%s: bug %v missing", label, key)
			continue
		}
		if rec.FoundAt != ref.FoundAt {
			t.Errorf("%s: bug %v FoundAt = %d, reference = %d", label, key, rec.FoundAt, ref.FoundAt)
		}
	}
	for key := range got.Bugs {
		if want.Bugs[key] == nil {
			t.Errorf("%s: extra bug %v", label, key)
		}
	}
	if g, w := got.Coverage.Count(), want.Coverage.Count(); g != w {
		t.Errorf("%s: coverage = %d branches, reference = %d", label, g, w)
	}
}

// driveManager plays a worker against the manager in-process until it is
// dismissed, executing every granted unit faithfully.
func driveManager(t *testing.T, m *Manager, worker string) {
	t.Helper()
	for i := 0; i < 500; i++ {
		lr := m.Lease(LeaseRequest{Worker: worker})
		switch lr.Status {
		case StatusDone:
			return
		case StatusLease:
			payload := runUnit(t, lr.Spec, lr.Unit)
			if _, err := m.Result(ResultRequest{
				Worker: worker, Campaign: lr.Campaign,
				UnitID: lr.Unit.ID, Token: lr.Token, Stats: payload,
			}); err != nil {
				t.Fatalf("result unit %d of %s: %v", lr.Unit.ID, lr.Campaign, err)
			}
		case StatusWait, StatusDrain:
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("unexpected lease status %q", lr.Status)
		}
	}
	t.Fatal("manager never dismissed the worker")
}

// TestTwoCampaignChaosEquivalence is the multi-campaign acceptance
// criterion: two concurrent campaigns run through one manager while the
// first suffers the full chaos menu — a worker killed mid-unit, the
// coordinator process "crashing" and restarting from its state dir, and
// a one-shot panic injected into the campaign's own machinery. Both
// campaigns must complete with results bit-identical to their unfaulted
// single-process references, and the healthy campaign must never be
// stalled into failure by its neighbor's faults.
func TestTwoCampaignChaosEquivalence(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	spec1 := CampaignSpec{
		Tool: "bvf", Version: "bpf-next", Sanitize: true,
		Seed: 42, TotalIters: 240, Units: 3, SyncEvery: 40,
	}
	spec2 := spec1
	spec2.Seed = 99
	ref1, ref2 := refRun(t, spec1), refRun(t, spec2)

	cfg := ManagerConfig{
		StateDir:     t.TempDir(),
		LeaseTTL:     1500 * time.Millisecond,
		PollInterval: 25 * time.Millisecond,
		ExitWhenIdle: true,
	}
	m1, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	var ids []string
	for _, spec := range []CampaignSpec{spec1, spec2} {
		resp, err := m1.Submit(SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, resp.ID)
	}

	// The server routes to whichever manager incarnation is current, so
	// a coordinator "restart" is a pointer swap under the same URL.
	var cur atomic.Pointer[Manager]
	cur.Store(m1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		NewServer(cur.Load()).ServeHTTP(w, r)
	}))
	defer srv.Close()

	// Chaos 1: a worker dies mid-unit (after its first 40-iteration
	// round), holding a live lease.
	faultinject.Arm("orch.worker.unit", faultinject.Fault{Kind: faultinject.Error, OnHit: 1})
	doomed := NewWorker(WorkerConfig{
		Client: NewClient(srv.URL, "doomed"), HeartbeatEvery: 50 * time.Millisecond,
	})
	if err := doomed.Run(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("doomed worker: err = %v, want injected death", err)
	}
	if doomed.UnitsDone() != 0 {
		t.Fatalf("doomed worker submitted %d units", doomed.UnitsDone())
	}

	// Chaos 2: the coordinator crashes and restarts from its state dir.
	// The registry restores both campaigns Running; the doomed worker's
	// orphaned lease is void under the new incarnation, its unit pending
	// again with full quota.
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	for _, id := range ids {
		if got := m2.CampaignState(id); got != StateRunning {
			t.Fatalf("campaign %s restored as %q, want running", id, got)
		}
	}
	cur.Store(m2)

	// Chaos 3: a one-shot panic in campaign 1's machinery. The strike
	// counter absorbs it; the caller sees a 500 and retries.
	faultinject.Arm("orch.campaign."+ids[0], faultinject.Fault{Kind: faultinject.Panic, OnHit: 1})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorker(WorkerConfig{
				Client: NewClient(srv.URL, "survivor"), HeartbeatEvery: 50 * time.Millisecond,
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
	case <-m2.Done():
	default:
		t.Fatal("manager not done after all workers exited")
	}

	for i, ref := range []*core.Stats{ref1, ref2} {
		id := ids[i]
		if got := m2.CampaignState(id); got != StateCompleted {
			t.Errorf("campaign %s = %q, want completed", id, got)
		}
		assertEquivalent(t, id, m2.MergedStats(id), ref)
		store := m2.Store(id)
		if got, want := store.Len(), len(ref.Bugs); got != want {
			t.Errorf("campaign %s findings store has %d entries, want %d", id, got, want)
		}
		if d := store.Damaged(); len(d) != 0 {
			t.Errorf("campaign %s damaged findings: %v", id, d)
		}
	}
}

// TestCampaignFailureIsolation: a campaign whose machinery panics on
// every touch trips its strike budget and Fails — while its neighbor
// keeps leasing through the very same calls and completes untouched.
// The failure survives a restart without resurrecting the machinery.
func TestCampaignFailureIsolation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	spec1, spec2 := testSpec(), testSpec()
	spec2.Seed = 11
	m, ids := newTestManager(t, ManagerConfig{StateDir: dir}, spec1, spec2)

	faultinject.Arm("orch.campaign."+ids[0], faultinject.Fault{Kind: faultinject.Panic, Every: 1})
	driveManager(t, m, "w1")

	if got := m.CampaignState(ids[0]); got != StateFailed {
		t.Fatalf("panicking campaign = %q, want failed", got)
	}
	if got := m.CampaignState(ids[1]); got != StateCompleted {
		t.Fatalf("healthy campaign = %q, want completed", got)
	}
	if got, want := m.MergedStats(ids[1]).Iterations, spec2.TotalIters; got != want {
		t.Fatalf("healthy campaign iterations = %d, want %d", got, want)
	}
	lst, err := m.List(ListRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range lst.Campaigns {
		if info.ID == ids[0] && info.Failure == "" {
			t.Error("failed campaign has no recorded failure reason")
		}
	}
	// The failed campaign fences all further traffic.
	if hb := m.Heartbeat(HeartbeatRequest{Worker: "w1", Campaign: ids[0]}); hb.Status != StatusFenced {
		t.Errorf("heartbeat to failed campaign = %q, want fenced", hb.Status)
	}
	if lr := m.Lease(LeaseRequest{Worker: "w1", Campaign: ids[0]}); lr.Status != StatusDone {
		t.Errorf("targeted lease on failed campaign = %q, want done", lr.Status)
	}

	// Restart: the failure is durable, the machinery stays down, the
	// evidence files are still on disk.
	faultinject.Reset()
	m2, err := NewManager(ManagerConfig{StateDir: dir, ExitWhenIdle: true})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := m2.CampaignState(ids[0]); got != StateFailed {
		t.Errorf("failed campaign restored as %q", got)
	}
	if got := m2.CampaignState(ids[1]); got != StateCompleted {
		t.Errorf("completed campaign restored as %q", got)
	}
	if !checkpoint.Exists(filepath.Join(dir, ids[0], "leases.ckpt")) {
		t.Error("failed campaign's lease table was not preserved")
	}
}

// TestStopCompletesWithPartialResults: stopping a running campaign
// drains it — no new leases, the in-flight unit's result is still
// accepted — and it then Completes with the partial totals.
func TestStopCompletesWithPartialResults(t *testing.T) {
	spec := testSpec()
	m, ids := newTestManager(t, ManagerConfig{}, spec)

	lr1 := m.Lease(LeaseRequest{Worker: "w1"})
	if lr1.Status != StatusLease {
		t.Fatalf("lease 1 = %q", lr1.Status)
	}
	if _, err := m.Result(ResultRequest{
		Worker: "w1", Campaign: lr1.Campaign, UnitID: lr1.Unit.ID,
		Token: lr1.Token, Stats: runUnit(t, lr1.Spec, lr1.Unit),
	}); err != nil {
		t.Fatal(err)
	}
	lr2 := m.Lease(LeaseRequest{Worker: "w1"})
	if lr2.Status != StatusLease {
		t.Fatalf("lease 2 = %q", lr2.Status)
	}

	resp, err := m.Stop(StopRequest{ID: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != StateDraining {
		t.Fatalf("stop with a unit in flight = %q, want draining", resp.State)
	}
	if lr := m.Lease(LeaseRequest{Worker: "w2", Campaign: ids[0]}); lr.Status != StatusDrain {
		t.Fatalf("lease on stopped campaign = %q, want drain", lr.Status)
	}

	// The in-flight unit finishes; its result counts, and the campaign
	// completes with the two finished units' iterations only.
	rr, err := m.Result(ResultRequest{
		Worker: "w1", Campaign: lr2.Campaign, UnitID: lr2.Unit.ID,
		Token: lr2.Token, Stats: runUnit(t, lr2.Spec, lr2.Unit),
	})
	if err != nil || rr.Status != StatusAccepted {
		t.Fatalf("in-flight result after stop = (%q, %v), want accepted", rr.Status, err)
	}
	if got := m.CampaignState(ids[0]); got != StateCompleted {
		t.Fatalf("stopped campaign = %q, want completed", got)
	}
	if got, want := m.MergedStats(ids[0]).Iterations, lr1.Unit.Quota+lr2.Unit.Quota; got != want {
		t.Errorf("partial iterations = %d, want %d", got, want)
	}
	select {
	case <-m.Done():
	default:
		t.Error("manager not done after the only campaign completed")
	}
}

// TestGracefulDrainCheckpointsAndResumes walks the SIGTERM protocol:
// drain stops new leases but accepts in-flight results, Quiesced flips
// once nothing is outstanding, CheckpointAll persists everything — and
// a restart resumes the campaign Running (the drain flag is a property
// of the dying process, not of the campaign) with the completed unit's
// work intact and the old incarnation's tokens fenced.
func TestGracefulDrainCheckpointsAndResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{
		StateDir: dir, LeaseTTL: time.Hour,
		PollInterval: 10 * time.Millisecond,
	}
	m, ids := newTestManager(t, cfg, testSpec())

	lr := m.Lease(LeaseRequest{Worker: "w1"})
	if lr.Status != StatusLease {
		t.Fatalf("lease = %q", lr.Status)
	}
	if n := m.Drain(); n != 1 {
		t.Fatalf("Drain() = %d campaigns, want 1", n)
	}
	if !m.Draining() {
		t.Fatal("not draining after Drain")
	}
	if lr := m.Lease(LeaseRequest{Worker: "w2"}); lr.Status != StatusDrain {
		t.Fatalf("lease during drain = %q, want drain", lr.Status)
	}
	if _, err := m.Submit(SubmitRequest{Spec: testSpec()}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	if m.Quiesced() {
		t.Fatal("quiesced with a lease outstanding")
	}

	// The in-flight unit completes; drain never discards live work.
	rr, err := m.Result(ResultRequest{
		Worker: "w1", Campaign: lr.Campaign, UnitID: lr.Unit.ID,
		Token: lr.Token, Stats: runUnit(t, lr.Spec, lr.Unit),
	})
	if err != nil || rr.Status != StatusAccepted {
		t.Fatalf("in-flight result during drain = (%q, %v), want accepted", rr.Status, err)
	}
	if !m.Quiesced() {
		t.Fatal("not quiesced after the only lease resolved")
	}
	m.CheckpointAll()
	if got := m.CampaignState(ids[0]); got != StateRunning {
		t.Fatalf("drained campaign persisted as %q, want running (drain is not stop)", got)
	}

	// Restart: drain is ephemeral, the finished unit survives, the old
	// incarnation's lease token is fenced.
	m2, err := NewManager(ManagerConfig{
		StateDir: dir, LeaseTTL: time.Hour,
		PollInterval: 10 * time.Millisecond, ExitWhenIdle: true,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if m2.Draining() {
		t.Error("drain flag leaked across restart")
	}
	if got := m2.CampaignState(ids[0]); got != StateRunning {
		t.Fatalf("campaign restored as %q, want running", got)
	}
	if got, want := m2.MergedStats(ids[0]).Iterations, lr.Unit.Quota; got != want {
		t.Errorf("restored iterations = %d, want %d", got, want)
	}
	if hb := m2.Heartbeat(HeartbeatRequest{
		Worker: "w1", Campaign: ids[0], UnitID: lr.Unit.ID, Token: lr.Token,
	}); hb.Status != StatusFenced {
		t.Errorf("pre-drain token heartbeat = %q, want fenced", hb.Status)
	}
	driveManager(t, m2, "w3")
	if got, want := m2.MergedStats(ids[0]).Iterations, testSpec().TotalIters; got != want {
		t.Errorf("final iterations = %d, want %d", got, want)
	}
	if got := m2.CampaignState(ids[0]); got != StateCompleted {
		t.Errorf("campaign = %q, want completed", got)
	}
}

// TestAdmissionControlOverHTTP exercises the token/quota gate end to
// end: 401 for a bad token, hard 400 for an oversized budget, 429 with
// a Retry-After hint at the campaign quota, 401 for stopping someone
// else's campaign — and the quota freeing once a campaign terminates.
func TestAdmissionControlOverHTTP(t *testing.T) {
	auth, err := NewAuthTable([]ClientQuota{
		{Token: "tok-alice", Name: "alice", MaxCampaigns: 1, MaxIters: 100},
		{Token: "tok-bob", Name: "bob"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := newTestManager(t, ManagerConfig{Auth: auth})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	spec := testSpec() // 60 iterations: inside alice's 100-iteration cap

	if resp := post(PathSubmit, SubmitRequest{Token: "wrong", Spec: spec}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token submit = %d, want 401", resp.StatusCode)
	}
	big := spec
	big.TotalIters = 1000
	if resp := post(PathSubmit, SubmitRequest{Token: "tok-alice", Spec: big}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized submit = %d, want hard 400 (waiting cannot shrink it)", resp.StatusCode)
	}

	resp := post(PathSubmit, SubmitRequest{Token: "tok-alice", Spec: spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}

	// Second concurrent campaign: over quota, shed with a backoff hint.
	resp = post(PathSubmit, SubmitRequest{Token: "tok-alice", Spec: spec})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive hint", ra)
	}

	if resp := post(PathStop, StopRequest{Token: "tok-bob", ID: sub.ID}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("cross-client stop = %d, want 401", resp.StatusCode)
	}
	if resp := post(PathList, ListRequest{Token: "nope"}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token list = %d, want 401", resp.StatusCode)
	}

	// The owner stops it (nothing leased, so it completes immediately),
	// which frees the quota for the next submission.
	if resp := post(PathStop, StopRequest{Token: "tok-alice", ID: sub.ID}); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner stop = %d", resp.StatusCode)
	}
	if resp := post(PathSubmit, SubmitRequest{Token: "tok-alice", Spec: spec}); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit after quota freed = %d, want 200", resp.StatusCode)
	}

	cl := NewClient(srv.URL, "cli")
	lst, err := cl.Campaigns(ListRequest{Token: "tok-bob"})
	if err != nil {
		t.Fatal(err)
	}
	if len(lst.Campaigns) != 2 {
		t.Fatalf("listed %d campaigns, want 2", len(lst.Campaigns))
	}
	for _, info := range lst.Campaigns {
		if info.Owner != "alice" {
			t.Errorf("campaign %s owner = %q, want alice", info.ID, info.Owner)
		}
	}
}

// TestOverloadSheddingWithRetryAfter: with the in-flight cap at one, a
// lease call stalled inside campaign machinery makes concurrent leases
// shed with 429 + Retry-After; the client's backoff honors the hint
// exactly (jitter off). The episode must cost nothing: the campaign
// still completes with its exact iteration budget — no duplicate
// commits, no failure.
func TestOverloadSheddingWithRetryAfter(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	spec := testSpec()
	m, ids := newTestManager(t, ManagerConfig{
		MaxInflight: 1, RetryAfter: 2 * time.Second,
		LeaseTTL: time.Second, PollInterval: 25 * time.Millisecond,
	}, spec)
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	// Blockade: the first lease call sleeps inside the campaign's fault
	// point, holding the single in-flight slot for 400ms.
	faultinject.Arm("orch.campaign."+ids[0], faultinject.Fault{
		Kind: faultinject.Delay, Delay: 400 * time.Millisecond, OnHit: 1,
	})
	blockade := make(chan struct{})
	go func() {
		defer close(blockade)
		b, _ := json.Marshal(LeaseRequest{Worker: "blocker"})
		if resp, err := http.Post(srv.URL+PathLease, "application/json", bytes.NewReader(b)); err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(150 * time.Millisecond)

	// A raw concurrent lease is shed, not queued.
	b, _ := json.Marshal(LeaseRequest{Worker: "w2"})
	resp, err := http.Post(srv.URL+PathLease, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("lease under load = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q", ra, "2")
	}

	// The client-side contract: a 429'd call backs off by the server's
	// hint (which dominates the exponential schedule), then succeeds
	// once the blockade lifts.
	var slept []time.Duration
	cl := NewClient(srv.URL, "w3")
	cl.Retry = backoff.Policy{Base: 50 * time.Millisecond, Max: 10 * time.Second, Jitter: 0}
	cl.Sleep = func(d time.Duration) {
		slept = append(slept, d)
		time.Sleep(100 * time.Millisecond)
	}
	if _, err := cl.Lease(LeaseRequest{Worker: "w3"}); err != nil {
		t.Fatalf("lease after shed: %v", err)
	}
	if len(slept) == 0 {
		t.Fatal("client was never shed")
	}
	for i, d := range slept {
		if d != 2*time.Second {
			t.Errorf("shed backoff %d = %v, want the server's 2s hint", i, d)
		}
	}
	<-blockade

	// Zero cost: the abandoned leases expire, and the campaign finishes
	// its exact budget — proving no unit was committed twice.
	faultinject.Reset()
	driveManager(t, m, "w9")
	if got, want := m.MergedStats(ids[0]).Iterations, spec.TotalIters; got != want {
		t.Errorf("iterations = %d, want exactly %d (duplicate commit?)", got, want)
	}
	if got := m.CampaignState(ids[0]); got != StateCompleted {
		t.Errorf("campaign = %q, want completed (overload must never fail a campaign)", got)
	}
}

// TestRestartIsolatesCorruptCampaignState: per-campaign state damage is
// contained at restore — the campaign Fails loudly with its wreckage
// preserved for forensics while its neighbor resumes and completes.
// Registry damage, in contrast, fails construction: the operator must
// decide, nothing silently starts over.
func TestRestartIsolatesCorruptCampaignState(t *testing.T) {
	dir := t.TempDir()
	spec1, spec2 := testSpec(), testSpec()
	spec2.Seed = 5
	m, ids := newTestManager(t, ManagerConfig{StateDir: dir}, spec1, spec2)

	lr := m.Lease(LeaseRequest{Worker: "w1", Campaign: ids[0]})
	if lr.Status != StatusLease {
		t.Fatalf("lease = %q", lr.Status)
	}
	if _, err := m.Result(ResultRequest{
		Worker: "w1", Campaign: lr.Campaign, UnitID: lr.Unit.ID,
		Token: lr.Token, Stats: runUnit(t, lr.Spec, lr.Unit),
	}); err != nil {
		t.Fatal(err)
	}

	wreckage := []byte("not a checkpoint")
	leases := filepath.Join(dir, ids[0], "leases.ckpt")
	if err := os.WriteFile(leases, wreckage, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(ManagerConfig{StateDir: dir, ExitWhenIdle: true})
	if err != nil {
		t.Fatalf("restart with one corrupt campaign: %v", err)
	}
	if got := m2.CampaignState(ids[0]); got != StateFailed {
		t.Fatalf("corrupt campaign = %q, want failed", got)
	}
	lst, err := m2.List(ListRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range lst.Campaigns {
		if info.ID == ids[0] && info.Failure == "" {
			t.Error("corrupt campaign has no recorded failure reason")
		}
	}
	if got, _ := os.ReadFile(leases); !bytes.Equal(got, wreckage) {
		t.Error("corrupt lease table was rewritten; forensic evidence lost")
	}

	// The neighbor is untouched: it restores and runs to completion.
	driveManager(t, m2, "w2")
	if got := m2.CampaignState(ids[1]); got != StateCompleted {
		t.Fatalf("healthy campaign = %q, want completed", got)
	}
	if got, want := m2.MergedStats(ids[1]).Iterations, spec2.TotalIters; got != want {
		t.Errorf("healthy campaign iterations = %d, want %d", got, want)
	}

	// Registry corruption is a loud construction error.
	if err := os.WriteFile(filepath.Join(dir, "manager.ckpt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(ManagerConfig{StateDir: dir}); err == nil {
		t.Fatal("corrupt registry restored silently")
	}
}

// TestCampaignSurvivesCheckpointWriteFaults: a campaign whose every
// checkpoint write fails ENOSPC-style still completes correctly —
// durability degrades (a restart would re-learn more), availability and
// results do not.
func TestCampaignSurvivesCheckpointWriteFaults(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	spec := testSpec()
	m, ids := newTestManager(t, ManagerConfig{StateDir: t.TempDir()}, spec)

	faultinject.Arm("checkpoint.write", faultinject.Fault{Kind: faultinject.Error, Every: 1})
	driveManager(t, m, "w1")
	if got, want := m.MergedStats(ids[0]).Iterations, spec.TotalIters; got != want {
		t.Errorf("iterations = %d, want %d", got, want)
	}
	if got := m.CampaignState(ids[0]); got != StateCompleted {
		t.Errorf("campaign = %q, want completed despite a full disk", got)
	}
}
