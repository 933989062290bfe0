package orchestrator

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// ErrUnitAbandoned reports that a worker walked away from a leased unit
// because its lease was superseded (fencing) or the worker was asked to
// stop. It is not a failure: the coordinator re-leases the unit with its
// full quota and another execution reproduces the same statistics.
var ErrUnitAbandoned = errors.New("orchestrator: unit abandoned")

// ErrUnitFailed wraps an error from a unit's own campaign. Unit execution
// is deterministic in (seed, quota), so every re-run of the unit would
// fail the same way: the worker reports the failure, which fails the
// campaign, and leases on.
var ErrUnitFailed = errors.New("orchestrator: unit failed")

// UnitRunner executes one work unit and returns its statistics. The
// runner must call progress with the cumulative executed-iteration count
// at round edges (heartbeats report it) and poll abort between rounds: a
// true return means the unit's results are no longer wanted and the
// runner should stop with ErrUnitAbandoned. An error wrapping
// ErrUnitFailed is reported to the coordinator, which fails the campaign.
// Any other error models the worker dying mid-unit — nothing is
// submitted and the lease expires.
type UnitRunner func(spec CampaignSpec, u Unit, progress func(int), abort func() bool) (*core.Stats, error)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name is the identity offered at registration; empty lets the
	// coordinator assign one.
	Name string
	// Client is the control-plane client. Required.
	Client *Client
	// Runner executes leased units; nil selects SpecRunner.
	Runner UnitRunner
	// HeartbeatEvery overrides the heartbeat interval; 0 derives TTL/3
	// from each lease.
	HeartbeatEvery time.Duration
	// Sleep replaces time.Sleep for StatusWait polling (tests stub it).
	Sleep func(time.Duration)
	// Logf, when non-nil, receives worker log lines.
	Logf func(format string, args ...any)
}

// Worker is the execution side of the control plane: register, then
// lease→execute→heartbeat→submit until the coordinator reports the
// campaign done.
type Worker struct {
	cfg      WorkerConfig
	name     string
	stopping atomic.Bool
	// unitsDone counts successfully submitted units (observability).
	unitsDone atomic.Int64
}

// NewWorker builds a worker around a control-plane client.
func NewWorker(cfg WorkerConfig) *Worker { return &Worker{cfg: cfg} }

// Name returns the coordinator-assigned identity (valid after Run has
// registered).
func (w *Worker) Name() string { return w.name }

// UnitsDone returns how many units this worker has submitted.
func (w *Worker) UnitsDone() int { return int(w.unitsDone.Load()) }

// Stop asks the worker to exit at the next round edge: the in-flight
// unit is abandoned (its lease expires and the quota is refunded), and
// Run returns ErrUnitAbandoned, or nil if the worker was between units.
func (w *Worker) Stop() { w.stopping.Store(true) }

// Run is the worker main loop. It returns nil when the coordinator
// reports the campaign complete, and an error if the worker "dies":
// an unreachable coordinator after retries or an injected fault. A
// fenced unit is abandoned and a failed unit reported, neither fatal —
// the worker just leases again.
func (w *Worker) Run() error {
	reg, err := w.cfg.Client.Register(RegisterRequest{Worker: w.cfg.Name})
	if err != nil {
		return fmt.Errorf("orchestrator: worker register: %w", err)
	}
	w.name = reg.Worker
	w.logf("registered as %s (%d active campaign(s))", w.name, reg.Campaigns)
	for !w.stopping.Load() {
		lr, err := w.cfg.Client.Lease(LeaseRequest{Worker: w.name})
		if err != nil {
			return fmt.Errorf("orchestrator: worker %s lease: %w", w.name, err)
		}
		switch lr.Status {
		case StatusDone:
			w.logf("campaigns done, exiting")
			return nil
		case StatusDrain:
			// The coordinator is going away. The worker's part of the
			// graceful-drain contract is simply to go quietly: in-flight
			// units were already submitted (a drain never interrupts
			// executeUnit — we only see StatusDrain between units).
			w.logf("coordinator draining, exiting")
			return nil
		case StatusWait:
			w.sleep(time.Duration(lr.PollMillis) * time.Millisecond)
		case StatusLease:
			err := w.executeUnit(lr)
			if errors.Is(err, ErrUnitAbandoned) {
				continue // superseded lease; grab the next unit
			}
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("orchestrator: worker %s: unexpected lease status %q", w.name, lr.Status)
		}
	}
	return nil
}

// executeUnit runs one leased unit under a heartbeat and submits its
// statistics. The heartbeat goroutine keeps the lease alive on a ticker;
// a fenced (or undeliverable) heartbeat flips the abort flag so the
// runner stops at the next round edge instead of wasting a full quota on
// results the coordinator will reject.
func (w *Worker) executeUnit(lr LeaseResponse) error {
	spec, unit, tok := lr.Spec, lr.Unit, lr.Token
	w.logf("leased %s unit %d (seed=%d quota=%d token=%s)", lr.Campaign, unit.ID, unit.Seed, unit.Quota, tok)

	var iters atomic.Int64
	var fenced atomic.Bool
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	interval := w.cfg.HeartbeatEvery
	if interval <= 0 {
		interval = time.Duration(lr.TTLMillis) * time.Millisecond / 3
	}
	if interval <= 0 {
		interval = time.Second
	}
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				resp, err := w.cfg.Client.Heartbeat(HeartbeatRequest{
					Worker: w.name, Campaign: lr.Campaign, UnitID: unit.ID,
					Token: tok, Iters: int(iters.Load()),
				})
				if err != nil || resp.Status != StatusOK {
					// Superseded lease, or a coordinator unreachable past
					// the retry budget: either way this unit's results are
					// unwanted. Stop burning quota on it.
					w.logf("unit %d heartbeat rejected (err=%v status=%q), abandoning", unit.ID, err, resp.Status)
					fenced.Store(true)
					return
				}
			}
		}
	}()

	st, runErr := w.runner()(spec, unit,
		func(done int) { iters.Store(int64(done)) },
		func() bool { return fenced.Load() || w.stopping.Load() },
	)
	close(hbStop)
	hbWG.Wait()
	if errors.Is(runErr, ErrUnitFailed) {
		rr, err := w.cfg.Client.Result(ResultRequest{
			Worker: w.name, Campaign: lr.Campaign, UnitID: unit.ID,
			Token: tok, Failure: runErr.Error(),
		})
		if err != nil {
			return fmt.Errorf("orchestrator: worker %s report unit %d failure: %w", w.name, unit.ID, err)
		}
		w.logf("unit %d failed, reported (%s): %v", unit.ID, rr.Status, runErr)
		return nil
	}
	if runErr != nil {
		return runErr
	}
	if fenced.Load() {
		// Fenced after the final round but before submission: the
		// coordinator would reject the result anyway.
		return ErrUnitAbandoned
	}
	// Deterministic worker death AFTER execution but BEFORE submission —
	// the strongest quota-refund scenario: a full unit of finished work
	// dies with the worker, and the refunded re-run must reproduce it.
	if err := faultinject.FireErr("orch.worker.exec"); err != nil {
		return err
	}
	payload, err := EncodeStats(st)
	if err != nil {
		return err
	}
	rr, err := w.cfg.Client.Result(ResultRequest{
		Worker: w.name, Campaign: lr.Campaign, UnitID: unit.ID,
		Token: tok, Stats: payload,
	})
	if err != nil {
		return fmt.Errorf("orchestrator: worker %s submit unit %d: %w", w.name, unit.ID, err)
	}
	if rr.Status == StatusFenced {
		w.logf("unit %d result fenced, discarding", unit.ID)
		return ErrUnitAbandoned
	}
	w.unitsDone.Add(1)
	w.logf("unit %d accepted (%d iterations)", unit.ID, iters.Load())
	return nil
}

func (w *Worker) runner() UnitRunner {
	if w.cfg.Runner != nil {
		return w.cfg.Runner
	}
	return SpecRunner
}

func (w *Worker) sleep(d time.Duration) {
	if w.cfg.Sleep != nil {
		w.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// SpecRunner is the production UnitRunner: the unit is executed as one
// shard of the spec's campaign — a Workers=1 core.ParallelCampaign
// seeded with the unit seed — in rounds of SyncEvery iterations.
// Because a campaign's trajectory depends only on (seed, cumulative
// iterations), and single-shard rounds exchange nothing, a re-run of
// the unit reproduces its statistics exactly; that is the whole basis of
// quota refunding. They equal shard unit.ID of a single-process campaign
// only when that campaign's shards exchange nothing either, that is,
// when its SyncEvery is at least the shard quota: a bvf -workers N run
// at its default SyncEvery exchanges corpus entries at every round edge
// and diverges (ROADMAP item 2(b) deletes exchange). An error from the
// unit's campaign is returned wrapping ErrUnitFailed.
func SpecRunner(spec CampaignSpec, u Unit, progress func(int), abort func() bool) (*core.Stats, error) {
	cc, err := spec.CampaignConfig()
	if err != nil {
		return nil, err
	}
	// NewParallelCampaign adds the shard index (0) to this seed, mirroring
	// shard u.ID of the reference campaign, whose seed is spec.Seed + u.ID.
	cc.Seed = u.Seed
	cc.Supervision = core.SupervisorConfig{Enabled: true}
	c := core.NewParallelCampaign(core.ParallelConfig{CampaignConfig: cc, Workers: 1, SyncEvery: spec.SyncEvery})
	chunk := spec.SyncEvery
	if chunk <= 0 {
		chunk = 1024 // keep in step with ParallelConfig's SyncEvery default
	}
	executed := 0
	for executed < u.Quota {
		if abort() {
			return nil, ErrUnitAbandoned
		}
		n := u.Quota - executed
		if n > chunk {
			n = chunk
		}
		if _, err := c.Run(n); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrUnitFailed, err)
		}
		executed += n
		progress(executed)
		// Deterministic mid-unit worker death: tests arm this point to
		// kill the worker between rounds, leaving a partially executed
		// unit whose lease must expire and refund the FULL quota.
		if err := faultinject.FireErr("orch.worker.unit"); err != nil {
			return nil, err
		}
	}
	return c.Stats(), nil
}
