package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path"
	goruntime "runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/orchestrator"
	"repro/internal/triage"
	"repro/internal/vcache"
)

// workload is one configuration users run, at a fixed iteration budget
// per campaign. A run executes as many campaigns, each at its own seed
// derived from the run's seed, as fit its time at the workload's nominal
// campaign time. The count depends only on the requested time, so one
// seed and time always give the same inputs.
type workload struct {
	name   string
	why    string
	budget int
	// nominal is about how long one campaign with its triage takes on a
	// 2-vCPU x86-64 VM. The VM's speed drifts by up to 2x over tens of
	// minutes, so it is set for the slower end: a 20-second run then
	// stays under about 35 seconds.
	nominal time.Duration
	// campaigns, when positive, overrides the count nominal gives.
	campaigns int
	cfg       mirrorConfig
	service   bool
}

// campaignsFor is the number of campaigns a run of the given time makes.
func (w workload) campaignsFor(limit time.Duration) int {
	if w.campaigns > 0 {
		return w.campaigns
	}
	return max(2, int(limit/w.nominal))
}

var workloads = []workload{
	{
		name:    "fuzz-default",
		why:     "bvf with no flags: 2 supervised shards, deferred minimization, no cache, then the triage gauntlet",
		budget:  20000,
		nominal: 1400 * time.Millisecond,
		cfg:     mirrorConfig{version: kernel.BPFNext, sanitize: true, supervise: true, shards: 2, minimize: true},
	},
	{
		name:   "fuzz-cached",
		why:    "the tuned single-campaign configuration of BENCH_6: verdict and prefix cache, no minimization, panic containment on",
		budget: 30000,
		// Its triage time varies most from campaign to campaign, so it
		// gets the most campaigns per run.
		nominal: 1000 * time.Millisecond,
		// BENCH_6 ran unsupervised, but then a harness panic (a helper
		// model panicking on a program the verifier let through, about one
		// campaign in 500) ends the process; supervision contains it and
		// counts it as a failed iteration. Its 2 s watchdogs do not trip
		// here, so it changes no other result.
		cfg: mirrorConfig{version: kernel.BPFNext, sanitize: true, cache: true, supervise: true, shards: 1},
	},
	{
		name:    "fuzz-oracle",
		why:     "bvf -oracle: every verification records claims and bypasses the cache, every clean run is replayed",
		budget:  8000,
		nominal: 2 * time.Second,
		cfg:     mirrorConfig{version: kernel.BPFNext, sanitize: true, oracle: true, supervise: true, shards: 2, minimize: true},
	},
	{
		name:    "service-loopback",
		why:     "bvfd plus 2 bvf workers over loopback TCP, many small leased units, then the triage gauntlet",
		budget:  36000,
		nominal: 1100 * time.Millisecond,
		cfg:     mirrorConfig{version: kernel.BPFNext, sanitize: true, supervise: true, shards: 1},
		service: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Service workload shape: units small enough (about 0.1 s each) that
// lease and result round trips and result merging are a visible share.
// The lease TTL is bvfd's default and the workers keep their default
// heartbeat cadence (TTL/3) and the manager its default poll interval
// (TTL/4), so the RPC mix is the one bvf workers send to bvfd: a unit
// ends long before its first heartbeat would fire.
const (
	serviceWorkers = 2
	serviceUnits   = 12
	leaseTTL       = 15 * time.Second
)

// outcome is one campaign of a workload, measured untraced.
type outcome struct {
	setup, fuzz, triage time.Duration

	iters, accepted, coverage int
	bugs                      []bugs.ID
	findings, stable          int
	allocs                    uint64
	peakMem                   uint64 // bytes, see memSampler

	// ops counts attempted operations: iterations, plus RPCs on the
	// service workload. failures counts the failed ones (see failCounts).
	ops, failures int
}

// failCounts are the failure events of one campaign.
type failCounts struct {
	iterations int // fuzz iterations attempted
	panics     int // contained harness panics
	watchdogs  int // verify and exec watchdog trips
	restarts   int // shard restarts
	rpcs       int // control-plane calls attempted (service only)
	rpcFails   int // transport errors, 5xx, 429 and fenced replies
	refunds    int // expired leases whose quota was refunded
}

// rate is failed operations over attempted ones. An iteration or an RPC
// is one operation; a panic, watchdog trip or shard restart fails an
// iteration, and a failed RPC or a refunded lease fails an RPC. A verifier
// rejection is a verdict, not a failure.
func (f failCounts) rate() (failed, attempted int, rate float64) {
	attempted = f.iterations + f.rpcs
	failed = f.panics + f.watchdogs + f.restarts + f.rpcFails + f.refunds
	if attempted > 0 {
		rate = float64(failed) / float64(attempted)
	}
	return failed, attempted, rate
}

func statsFailures(st *core.Stats) failCounts {
	f := failCounts{iterations: st.Iterations, panics: st.CrashCount, restarts: st.ShardRestarts}
	for _, n := range st.WatchdogTrips {
		f.watchdogs += n
	}
	return f
}

// firstCall wraps a program source to note when the campaign asks for its
// first program: the end of set-up.
type firstCall struct {
	core.ProgramSource
	once sync.Once
	at   time.Time
	// trivial makes every program "r0 = 0; exit", for a run that only
	// times set-up: the first generated program can be one whose
	// verification or minimization takes a second.
	trivial bool
}

func (f *firstCall) Generate(r *rand.Rand, pool []core.MapHandle) *isa.Program {
	f.once.Do(func() { f.at = time.Now() })
	if f.trivial {
		return &isa.Program{
			Type: isa.ProgTypeSocketFilter, GPLCompatible: true,
			Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 0), isa.Exit()},
		}
	}
	return f.ProgramSource.Generate(r, pool)
}

// campaignConfig is the core configuration a fuzz workload runs, exactly
// as cmd/bvf (ParallelCampaign) or cmd/bvf-bench -bench-json (single
// campaign) builds it.
func campaignConfig(cfg mirrorConfig, src core.ProgramSource, seed int64) core.CampaignConfig {
	cc := core.CampaignConfig{
		Source: src, Version: cfg.version, Sanitize: cfg.sanitize,
		Seed: seed, Oracle: cfg.oracle, NoMinimize: !cfg.minimize,
	}
	if cfg.supervise {
		cc.Supervision = core.SupervisorConfig{
			Enabled: true, MaxRestarts: 8, VerifyTimeout: watchdog, ExecTimeout: watchdog,
		}
	}
	if cfg.cache {
		cc.Cache = vcache.NewStore(0)
	}
	return cc
}

// fuzzCampaign builds a fuzz workload's campaign and returns its Run,
// the time set-up started, and the source that notes when it ended.
func fuzzCampaign(cfg mirrorConfig, seed int64) (run func(int) (*core.Stats, error), src *firstCall, start time.Time) {
	start = time.Now()
	src = &firstCall{ProgramSource: core.BVFSource(cfg.version.HasKfuncs())}
	cc := campaignConfig(cfg, src, seed)
	if cfg.shards > 1 {
		return core.NewParallelCampaign(core.ParallelConfig{CampaignConfig: cc, Workers: cfg.shards}).Run, src, start
	}
	return core.NewCampaign(cc).Run, src, start
}

// setupReps is how many more set-ups (fuzzSetup) follow each timed fuzz
// campaign; setup_s is the median over the timed ones and these. The
// service workload has none: its set-up takes a few milliseconds, and
// setting it up again means running units and their triage.
const setupReps = 8

// fuzzSetup sets a fuzz workload's campaign up once more and runs one
// trivial iteration per shard, returning the set-up time. Set-up takes
// about a hundred microseconds, so setup_s is a median over several of
// these per campaign.
func fuzzSetup(cfg mirrorConfig, seed int64) (time.Duration, error) {
	run, src, start := fuzzCampaign(cfg, seed)
	src.trivial = true
	if _, err := run(cfg.shards); err != nil {
		return 0, fmt.Errorf("set-up seed %d: %w", seed, err)
	}
	return src.at.Sub(start), nil
}

// runFuzz runs one untraced campaign of a fuzz workload and its triage.
func runFuzz(cfg mirrorConfig, seed int64, budget int) (*outcome, error) {
	mem := startMemSampler()
	defer mem.stop()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	run, src, start := fuzzCampaign(cfg, seed)
	st, err := run(budget)
	end := time.Now()
	goruntime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("campaign seed %d: %w", seed, err)
	}
	out := &outcome{
		setup: src.at.Sub(start), fuzz: end.Sub(src.at),
		iters: st.Iterations, accepted: st.Accepted, coverage: st.Coverage.Count(),
		bugs: st.BugIDs(), allocs: m1.Mallocs - m0.Mallocs,
	}
	f := statsFailures(st)
	out.failures, out.ops, _ = f.rate()
	if err := out.runTriage(st, triage.Env{Version: cfg.version, Sanitize: cfg.sanitize, Oracle: cfg.oracle}, nil); err != nil {
		return nil, err
	}
	out.peakMem = mem.stop()
	return out, nil
}

// runTriage is the validation gauntlet over a campaign's findings, as
// cmd/bvf runs it: triage.New, Ingest, Run. A nil store starts an
// in-memory one; the service passes the store its coordinator filled.
func (o *outcome) runTriage(st *core.Stats, env triage.Env, store *triage.Store) error {
	t0 := time.Now()
	if store == nil {
		var err error
		if store, err = triage.Open(""); err != nil {
			return err
		}
	}
	g := triage.New(triage.Config{}, store)
	if _, err := g.Ingest(st, env); err != nil {
		return fmt.Errorf("triage ingest: %w", err)
	}
	sum, err := g.Run()
	o.triage = time.Since(t0)
	if err != nil {
		return fmt.Errorf("triage: %w", err)
	}
	o.findings, o.stable = sum.Total, sum.Stable
	return nil
}

// serviceRun is one service-loopback campaign; trace, when non-nil,
// receives a span per RPC and per unit.
type serviceRun struct {
	out    *outcome
	st     *core.Stats
	meter  *rpcMeter
	fails  failCounts
	unitNS int64 // summed unit wall clock
	wallNS int64 // summed worker wall clock
}

// runService runs bvfd's one-shot mode in process — Manager, NewServer on
// a 127.0.0.1 listener, a temporary state directory — with 2 workers over
// TCP, then the triage gauntlet over the campaign's finding store, as
// bvfd -triage does.
func runService(cfg mirrorConfig, seed int64, budget int, stateRoot string, tr *tracer) (*serviceRun, error) {
	mem := startMemSampler()
	defer mem.stop()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	start := time.Now()
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "bvfd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	mgr, err := orchestrator.NewManager(orchestrator.ManagerConfig{
		StateDir: dir, LeaseTTL: leaseTTL, ExitWhenIdle: true,
	})
	if err != nil {
		return nil, err
	}
	spec := orchestrator.CampaignSpec{
		Tool: "bvf", Version: cfg.version.String(), Sanitize: cfg.sanitize, Oracle: cfg.oracle,
		Seed: seed, TotalIters: budget, Units: serviceUnits, SyncEvery: 1024,
	}
	sub, err := mgr.Submit(orchestrator.SubmitRequest{Spec: spec})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: orchestrator.NewServer(mgr), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{}
	meter := &rpcMeter{next: transport, tr: tr}
	defer func() {
		_ = srv.Close()
		<-served
		transport.CloseIdleConnections()
	}()

	var first sync.Once
	var firstAt time.Time
	var unitNS int64
	var mu sync.Mutex
	runner := func(s orchestrator.CampaignSpec, u orchestrator.Unit, progress func(int), abort func() bool) (*core.Stats, error) {
		first.Do(func() { firstAt = time.Now() })
		t0 := time.Now()
		var id int32
		if tr != nil {
			id = tr.begin("orchestrator.unit", -1, int64(u.ID))
		}
		st, err := orchestrator.SpecRunner(s, u, progress, abort)
		if tr != nil {
			tr.end(id, int64(u.Quota))
		}
		mu.Lock()
		unitNS += time.Since(t0).Nanoseconds()
		mu.Unlock()
		return st, err
	}
	// A worker told to wait while the other runs the last unit sleeps for
	// the poll interval, as a bvf worker does, but wakes when the campaign
	// completes. Its next lease call then dismisses it, as it would after
	// the full sleep, so the RPCs are the same and no run idles for seconds.
	sleepUntilDone := func(d time.Duration) {
		select {
		case <-time.After(d):
		case <-mgr.Done():
		}
	}
	url := "http://" + ln.Addr().String()
	ws := make([]*orchestrator.Worker, serviceWorkers)
	errs := make([]error, serviceWorkers)
	walls := make([]int64, serviceWorkers)
	var wg sync.WaitGroup
	for i := range ws {
		name := fmt.Sprintf("w%d", i+1)
		cl := orchestrator.NewClient(url, name)
		cl.HTTP = &http.Client{Timeout: 10 * time.Second, Transport: meter}
		ws[i] = orchestrator.NewWorker(orchestrator.WorkerConfig{
			Name: name, Client: cl, Runner: runner, Sleep: sleepUntilDone,
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = ws[i].Run()
			walls[i] = time.Since(t0).Nanoseconds()
		}(i)
	}
	var fuzzEnd time.Time
	select {
	case <-mgr.Done():
		fuzzEnd = time.Now()
	case <-time.After(150 * time.Second):
		for _, w := range ws {
			w.Stop()
		}
		wg.Wait()
		return nil, errors.New("service campaign did not complete within 150s")
	}
	wg.Wait()
	goruntime.ReadMemStats(&m1)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("service worker: %w", err)
	}
	st := mgr.MergedStats(sub.ID)
	status, err := mgr.Status(orchestrator.StatusRequest{Campaign: sub.ID})
	if err != nil {
		return nil, err
	}
	committed := 0
	for _, w := range ws {
		committed += w.UnitsDone()
	}
	// Every unit commits exactly once and the merged axis holds exactly
	// the budget; a duplicate commit would break either equality.
	if st.Iterations != budget || status.Iterations != budget || status.UnitsDone != serviceUnits || committed != serviceUnits {
		return nil, fmt.Errorf("service merge: %d merged iterations (status %d) for budget %d, %d/%d units done, %d commits",
			st.Iterations, status.Iterations, budget, status.UnitsDone, serviceUnits, committed)
	}
	out := &outcome{
		setup: firstAt.Sub(start), fuzz: fuzzEnd.Sub(firstAt),
		iters: st.Iterations, accepted: st.Accepted, coverage: st.Coverage.Count(),
		bugs: st.BugIDs(), allocs: m1.Mallocs - m0.Mallocs,
	}
	f := statsFailures(st)
	f.rpcs, f.rpcFails = meter.totals()
	f.refunds = mgr.Refunds()
	out.failures, out.ops, _ = f.rate()
	env := triage.Env{Version: cfg.version, Sanitize: cfg.sanitize, Oracle: cfg.oracle}
	if err := out.runTriage(nil, env, mgr.Store(sub.ID)); err != nil {
		return nil, err
	}
	out.peakMem = mem.stop()
	var wall int64
	for _, w := range walls {
		wall += w
	}
	return &serviceRun{out: out, st: st, meter: meter, fails: f, unitNS: unitNS, wallNS: wall}, nil
}

// rpcMeter is the workers' http.RoundTripper. It counts every control-
// plane call and its failures and, in a traced run, records one span per
// call with the unit ID as trace ID.
type rpcMeter struct {
	next http.RoundTripper
	tr   *tracer

	mu          sync.Mutex
	rpcs, fails int
	resultBytes []int64
}

func (m *rpcMeter) totals() (rpcs, fails int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rpcs, m.fails
}

func (m *rpcMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	op := path.Base(req.URL.Path)
	unit := int64(-1)
	if m.tr != nil && (op == "heartbeat" || op == "result") && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var r struct{ UnitID int }
			if json.NewDecoder(body).Decode(&r) == nil {
				unit = int64(r.UnitID)
			}
			body.Close()
		}
	}
	var id int32
	if m.tr != nil {
		id = m.tr.begin("orchestrator."+op, -1, unit)
	}
	resp, err := m.next.RoundTrip(req)
	failed := err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
	if !failed && (op == "result" || op == "heartbeat" || op == "lease") {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var r struct {
			Status string
			Unit   struct{ ID int }
		}
		if rerr != nil || json.Unmarshal(body, &r) != nil {
			failed = true
		} else if r.Status == orchestrator.StatusFenced {
			failed = true
		} else if op == "lease" && r.Status == orchestrator.StatusLease {
			unit = int64(r.Unit.ID)
		}
	}
	if m.tr != nil {
		m.tr.endTrace(id, unit)
	}
	m.mu.Lock()
	m.rpcs++
	if failed {
		m.fails++
	}
	if op == "result" {
		m.resultBytes = append(m.resultBytes, req.ContentLength)
	}
	m.mu.Unlock()
	return resp, err
}

// bugSet renders a sorted bug-ID list (core.Stats.BugIDs) for comparison.
func bugSet(ids []bugs.ID) string { return fmt.Sprint(ids) }

// memSampler tracks the peak of the memory the Go runtime uses while one
// campaign runs: everything it has mapped except free and released heap
// spans, so memory kept from earlier campaigns does not count. The
// process's peak RSS (getrusage) is a maximum over every campaign of a
// run and would follow the largest one.
type memSampler struct {
	done, exited chan struct{}
	once         sync.Once
	peak         uint64
}

// startMemSampler collects the previous campaign's garbage and samples
// every 20 ms until stop.
func startMemSampler() *memSampler {
	goruntime.GC()
	s := &memSampler{done: make(chan struct{}), exited: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		used := samples[0].Value.Uint64() - samples[1].Value.Uint64() - samples[2].Value.Uint64()
		s.peak = max(s.peak, used)
	}
	go func() {
		defer close(s.exited)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-s.done:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes. Calling it again
// returns the same peak.
func (s *memSampler) stop() uint64 {
	s.once.Do(func() { close(s.done) })
	<-s.exited
	return s.peak
}
