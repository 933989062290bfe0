package orchestrator

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/triage"
)

// Unit lease states.
const (
	unitPending = iota
	unitLeased
	unitDone
	unitFailed
)

func stateName(s int) string {
	switch s {
	case unitPending:
		return "pending"
	case unitLeased:
		return "leased"
	case unitDone:
		return "done"
	case unitFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", s)
}

// CoordinatorConfig parameterizes a campaign coordinator.
type CoordinatorConfig struct {
	Spec CampaignSpec
	// LeaseTTL is how long a lease survives without a heartbeat.
	// Default 15s.
	LeaseTTL time.Duration
	// PollInterval is the wait suggested to workers when every unit is
	// leased. Default LeaseTTL/4.
	PollInterval time.Duration
	// CheckpointPath, when non-empty, makes the coordinator persist its
	// lease table (incarnation, done units, merged statistics) through
	// internal/checkpoint: atomically, and restored on construction so a
	// restarted coordinator resumes the campaign instead of rerunning it.
	CheckpointPath string
	// Store, when non-nil, is the shared findings registry: every
	// accepted result's deduplicated findings are ingested into it
	// (crash-consistently, one file per finding) keyed by the same
	// core.BugKey-derived identity the triage gauntlet uses.
	Store *triage.Store
	// Now is the clock (tests inject a fake one). Default time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Coordinator owns the lease table of one campaign. All state mutations
// happen under one mutex on the request path — the table is a few dozen
// entries, and correctness here is worth more than concurrency.
type Coordinator struct {
	mu      sync.Mutex
	cfg     CoordinatorConfig
	version int64 // incarnation of this process generation
	epoch   int64 // lease grants so far within this incarnation

	units   []*unitEntry
	workers map[string]*workerEntry

	// draining stops new lease grants while letting in-flight units
	// heartbeat and submit: campaign-level drain (a stopped campaign) and
	// coordinator-wide drain (SIGTERM) both set it.
	draining bool

	merged  *core.Stats
	refunds int

	gauntlet *triage.Gauntlet // ingest front-end over cfg.Store
	env      triage.Env       // the configuration the units' findings came from

	done     chan struct{}
	doneOnce sync.Once
}

type unitEntry struct {
	def      Unit
	state    int
	worker   string
	tok      Token
	deadline time.Time
	iters    int
	// doneTok is the token that completed the unit, kept so a retried
	// result submission (response lost on the wire) re-acknowledges
	// idempotently instead of being fenced.
	doneTok Token
}

type workerEntry struct {
	name      string
	lastSeen  time.Time
	unitsDone int
}

// tableSnapshot is the checkpointed form of the lease table. Leases are
// deliberately absent: a restored coordinator re-leases every non-done
// unit under a new incarnation, and the fencing tokens make any still-
// running worker's stale results harmless.
type tableSnapshot struct {
	Spec        CampaignSpec
	Incarnation int64
	DoneUnits   []int
	Merged      *core.Stats
	Refunds     int
}

// NewCoordinator builds a coordinator for the spec, splitting the
// iteration budget across units exactly the way core.ParallelCampaign
// splits it across shards. When cfg.CheckpointPath names an existing
// checkpoint, the campaign resumes from it: done units keep their merged
// results, and the incarnation is bumped — and durably re-persisted
// before any lease is granted — so every lease from the previous
// incarnation is fenced.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	cc, _ := cfg.Spec.CampaignConfig() // Validate has checked it
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = cfg.LeaseTTL / 4
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		version: 1,
		workers: make(map[string]*workerEntry),
		merged:  core.NewStats(cfg.Spec.Tool, cc.Version),
		env:     triage.Env{Version: cc.Version, Sanitize: cc.Sanitize, Oracle: cc.Oracle},
		done:    make(chan struct{}),
	}
	for _, u := range SplitUnits(cfg.Spec) {
		c.units = append(c.units, &unitEntry{def: u})
	}
	if cfg.Store != nil {
		c.gauntlet = triage.New(triage.Config{}, cfg.Store)
	}
	if cfg.CheckpointPath != "" {
		if err := c.restore(); err != nil {
			return nil, err
		}
		// The incarnation bump must be durable before the first grant:
		// if it were not, a crash right after granting could revive the
		// previous incarnation's tokens.
		if err := c.checkpointLocked(); err != nil {
			return nil, fmt.Errorf("orchestrator: persisting incarnation bump: %w", err)
		}
	}
	c.maybeFinishLocked()
	return c, nil
}

// SplitUnits decomposes a spec into its work units: unit i gets seed
// Seed+i and shard i's quota of core.SplitQuota, the split
// ParallelCampaign.Run makes, which is what makes a distributed campaign
// reproduce a single-process one exactly.
func SplitUnits(spec CampaignSpec) []Unit {
	units := make([]Unit, spec.Units)
	for i, q := range core.SplitQuota(spec.TotalIters, spec.Units) {
		units[i] = Unit{ID: i, Seed: spec.Seed + int64(i), Quota: q}
	}
	return units
}

// restore loads the checkpointed lease table, if any. Missing file:
// fresh campaign. Corrupt file: loud error — the checkpoint protocol
// (temp→fsync→rename) never tears the real file, so damage means
// something external happened and the operator should decide.
func (c *Coordinator) restore() error {
	var snap tableSnapshot
	err := checkpoint.Load(c.cfg.CheckpointPath, &snap)
	switch {
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		return nil
	case err != nil:
		return fmt.Errorf("orchestrator: restore: %w", err)
	}
	if snap.Spec != c.cfg.Spec {
		return fmt.Errorf("orchestrator: restore: checkpoint is for spec %+v, coordinator runs %+v", snap.Spec, c.cfg.Spec)
	}
	c.version = snap.Incarnation + 1
	c.refunds = snap.Refunds
	for _, id := range snap.DoneUnits {
		if id >= 0 && id < len(c.units) {
			c.units[id].state = unitDone
		}
	}
	if snap.Merged != nil {
		snap.Merged.Normalize()
		c.merged = core.NewStats(snap.Merged.Tool, snap.Merged.Version)
		c.merged.Merge(snap.Merged)
	}
	c.logf("restored lease table: %d/%d units done, incarnation %d", len(snap.DoneUnits), len(c.units), c.version)
	return nil
}

// checkpointLocked persists the lease table. A failed save is logged and
// tolerated: unit results are deterministic in (seed, quota), so a
// restart from an older table merely re-runs the units completed since —
// and reproduces their statistics exactly (the quota-refund invariant,
// applied to durability).
func (c *Coordinator) checkpointLocked() error {
	if c.cfg.CheckpointPath == "" {
		return nil
	}
	if err := faultinject.FireErr("orch.checkpoint"); err != nil {
		return err
	}
	snap := tableSnapshot{
		Spec:        c.cfg.Spec,
		Incarnation: c.version,
		Merged:      c.merged,
		Refunds:     c.refunds,
	}
	for _, u := range c.units {
		if u.state == unitDone {
			snap.DoneUnits = append(snap.DoneUnits, u.def.ID)
		}
	}
	return checkpoint.Save(c.cfg.CheckpointPath, &snap)
}

func (c *Coordinator) touchWorkerLocked(name string) {
	w := c.workers[name]
	if w == nil {
		w = &workerEntry{name: name}
		c.workers[name] = w
	}
	w.lastSeen = c.cfg.Now()
}

// Lease grants the lowest-ID pending unit, or tells the worker to wait
// (all units leased), that the campaign is draining (no new grants), or
// to exit (campaign done).
func (c *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.touchWorkerLocked(req.Worker)
	c.expireLocked(now)
	var grant *unitEntry
	allDone := true
	for _, u := range c.units {
		if u.state != unitDone {
			allDone = false
		}
		if u.state == unitPending && grant == nil {
			grant = u
		}
	}
	if allDone {
		return LeaseResponse{Status: StatusDone}
	}
	if c.draining {
		return LeaseResponse{Status: StatusDrain}
	}
	if grant == nil {
		return LeaseResponse{Status: StatusWait, PollMillis: c.cfg.PollInterval.Milliseconds()}
	}
	c.epoch++
	grant.state = unitLeased
	grant.worker = req.Worker
	grant.tok = Token{Incarnation: c.version, Epoch: c.epoch}
	grant.deadline = now.Add(c.cfg.LeaseTTL)
	grant.iters = 0
	c.logf("unit %d leased to %s (token %s, quota %d)", grant.def.ID, req.Worker, grant.tok, grant.def.Quota)
	return LeaseResponse{
		Status:    StatusLease,
		Spec:      c.cfg.Spec,
		Unit:      grant.def,
		Token:     grant.tok,
		TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}
}

// SetDraining flips the drain flag: a draining coordinator grants no new
// leases but keeps honoring heartbeats and accepting results for units
// already in flight.
func (c *Coordinator) SetDraining(v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = v
}

// Outstanding expires dead leases against the current clock and returns
// how many units remain leased — the quantity a drain waits to hit zero.
func (c *Coordinator) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	n := 0
	for _, u := range c.units {
		if u.state == unitLeased {
			n++
		}
	}
	return n
}

// Checkpoint persists the lease table now (drain uses it for the final
// write before exit).
func (c *Coordinator) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkpointLocked()
}

// Heartbeat extends a live lease. A heartbeat carrying anything but the
// unit's exact current token — a zombie whose lease expired and was
// re-issued, or a survivor of a dead coordinator incarnation — is
// fenced, telling the worker to abandon the unit.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.touchWorkerLocked(req.Worker)
	c.expireLocked(now)
	u := c.holderLocked(req.UnitID, req.Worker, req.Token)
	if u == nil {
		return HeartbeatResponse{Status: StatusFenced}
	}
	u.deadline = now.Add(c.cfg.LeaseTTL)
	u.iters = req.Iters
	return HeartbeatResponse{Status: StatusOK}
}

// Result ingests a completed unit. Acceptance requires the exact current
// lease token (zombie fencing); a resubmission of an already-accepted
// result under its completing token is re-acknowledged idempotently so a
// worker that lost the first acknowledgment on the wire can retry safely.
// A failure report (req.Failure) passes the same check and marks the
// unit failed; the manager then fails the campaign.
func (c *Coordinator) Result(req ResultRequest) (ResultResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.touchWorkerLocked(req.Worker)
	c.expireLocked(now)
	if u := c.unitByID(req.UnitID); u != nil && u.state == unitDone && req.Failure == "" {
		if u.doneTok == req.Token {
			return ResultResponse{Status: StatusAccepted}, nil
		}
		return ResultResponse{Status: StatusFenced}, nil
	}
	u := c.holderLocked(req.UnitID, req.Worker, req.Token)
	if u == nil {
		c.logf("fenced result for unit %d from %s (token %s)", req.UnitID, req.Worker, req.Token)
		return ResultResponse{Status: StatusFenced}, nil
	}
	if req.Failure != "" {
		u.state = unitFailed
		c.logf("unit %d failed on %s: %s", u.def.ID, req.Worker, req.Failure)
		return ResultResponse{Status: StatusAccepted}, nil
	}
	st, err := DecodeStats(req.Stats)
	if err != nil {
		// An undecodable payload is the worker's bug, not a lease event:
		// the lease stays live so the worker can retry or time out.
		return ResultResponse{}, err
	}
	if st.Iterations != u.def.Quota {
		return ResultResponse{}, fmt.Errorf("orchestrator: unit %d result has %d iterations, quota is %d", u.def.ID, st.Iterations, u.def.Quota)
	}
	u.state = unitDone
	u.doneTok = req.Token
	u.worker = ""
	u.iters = st.Iterations
	if w := c.workers[req.Worker]; w != nil {
		w.unitsDone++
	}
	c.mergeUnitLocked(u.def, st)
	if err := c.checkpointLocked(); err != nil {
		// Tolerated: see checkpointLocked. The unit stays done in memory;
		// a crash before the next successful save re-runs it identically.
		c.logf("checkpoint after unit %d failed (continuing): %v", u.def.ID, err)
	}
	c.logf("unit %d completed by %s (%d iterations)", u.def.ID, req.Worker, st.Iterations)
	c.maybeFinishLocked()
	return ResultResponse{Status: StatusAccepted}, nil
}

// mergeUnitLocked folds one unit's statistics into the campaign totals on
// the global axis, as ParallelCampaign merges its shards (unit ID ==
// shard index).
func (c *Coordinator) mergeUnitLocked(def Unit, st *core.Stats) {
	st.Normalize()
	t := st.OnGlobalAxis(def.ID, c.cfg.Spec.Units)
	c.merged.Merge(t)
	if c.gauntlet != nil {
		if _, err := c.gauntlet.Ingest(t, c.env); err != nil {
			c.logf("findings ingest for unit %d failed: %v", def.ID, err)
		}
	}
}

// expireLocked refunds every leased unit whose deadline has passed: the
// unit goes back to pending with its full quota, and the next grant's
// fresh epoch fences the previous holder. This is the quota-refund
// invariant — a SIGKILLed worker costs re-execution time, never budget.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, u := range c.units {
		if u.state == unitLeased && now.After(u.deadline) {
			c.logf("lease on unit %d (worker %s, token %s) expired; quota %d refunded",
				u.def.ID, u.worker, u.tok, u.def.Quota)
			u.state = unitPending
			u.worker = ""
			u.iters = 0
			c.refunds++
		}
	}
}

// holderLocked returns unit id if worker holds its current lease under
// tok, and nil otherwise: the check a heartbeat, a result and a failure
// report each pass.
func (c *Coordinator) holderLocked(id int, worker string, tok Token) *unitEntry {
	u := c.unitByID(id)
	if u == nil || u.state != unitLeased || u.tok != tok || u.worker != worker {
		return nil
	}
	return u
}

func (c *Coordinator) unitByID(id int) *unitEntry {
	if id < 0 || id >= len(c.units) {
		return nil
	}
	return c.units[id]
}

// maybeFinishLocked closes Done when the last unit completes, after a
// final checkpoint.
func (c *Coordinator) maybeFinishLocked() {
	for _, u := range c.units {
		if u.state != unitDone {
			return
		}
	}
	c.doneOnce.Do(func() {
		if err := c.checkpointLocked(); err != nil {
			c.logf("final checkpoint failed: %v", err)
		}
		close(c.done)
	})
}

// Done is closed when every unit has completed.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Merged returns the campaign statistics merged so far. The returned
// value is shared — callers must treat it as read-only, and should read
// it after Done closes for final totals.
func (c *Coordinator) Merged() *core.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.merged
}

// Refunds returns how many expired leases have been refunded so far.
func (c *Coordinator) Refunds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refunds
}

// Status snapshots the lease table for the status endpoint.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	resp := StatusResponse{
		Spec:           c.cfg.Spec,
		Iterations:     c.merged.Iterations,
		RefundedLeases: c.refunds,
	}
	resp.Done = true
	for _, u := range c.units {
		if u.state != unitDone {
			resp.Done = false
		} else {
			resp.UnitsDone++
		}
		us := UnitStatus{
			ID: u.def.ID, Quota: u.def.Quota, State: stateName(u.state),
			Worker: u.worker, Iters: u.iters,
		}
		if u.state == unitLeased {
			us.Token = u.tok
		}
		resp.Units = append(resp.Units, us)
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := c.workers[name]
		resp.Workers = append(resp.Workers, WorkerStatus{
			Name:      name,
			Live:      now.Sub(w.lastSeen) <= c.cfg.LeaseTTL,
			UnitsDone: w.unitsDone,
		})
	}
	for key := range c.merged.Bugs {
		resp.Bugs = append(resp.Bugs, key.String())
	}
	sort.Strings(resp.Bugs)
	if c.cfg.Store != nil {
		resp.DamagedStore = c.cfg.Store.Damaged()
	}
	return resp
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
