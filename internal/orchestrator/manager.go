package orchestrator

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/triage"
)

// ManagerConfig parameterizes the multi-campaign lifecycle manager.
type ManagerConfig struct {
	// StateDir is the root of the manager's durable state:
	//
	//	StateDir/manager.ckpt       campaign registry (checkpointed)
	//	StateDir/<id>/leases.ckpt   per-campaign lease table
	//	StateDir/<id>/findings/     per-campaign crash-safe finding store
	//
	// Empty keeps everything in memory (tests, one-shot runs).
	StateDir string
	// LeaseTTL/PollInterval are passed to every campaign's coordinator.
	LeaseTTL     time.Duration
	PollInterval time.Duration
	// Auth authenticates campaign submissions; nil means open access.
	Auth *AuthTable
	// MaxActive bounds concurrently Running campaigns; further
	// admissions queue as Pending. 0 means unlimited.
	MaxActive int
	// MaxInflight bounds concurrent lease/submit calls before the server
	// sheds load with 429 + Retry-After. 0 means unlimited. Enforced by
	// the HTTP layer (NewServer), recorded here so manager and server
	// share one config.
	MaxInflight int
	// RetryAfter is the hint attached to 429 responses. Default
	// PollInterval (and at least one second).
	RetryAfter time.Duration
	// ExitWhenIdle makes Lease answer StatusDone once every campaign is
	// terminal (single-shot bvfd: workers exit with the campaign). A
	// long-lived service leaves it false so idle workers keep polling
	// for the next submission.
	ExitWhenIdle bool
	// Now is the clock (tests inject a fake one). Default time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Manager owns the campaign registry and the lifecycle state machine.
// Its mutex guards only the registry and states — never a coordinator
// call — so one campaign's slow merge or injected failure cannot stall
// another campaign's leasing.
type Manager struct {
	cfg ManagerConfig

	mu         sync.Mutex
	campaigns  map[string]*campaign
	order      []string // submission order
	nextID     int
	nextWorker int
	draining   bool

	done     chan struct{}
	doneOnce sync.Once
}

// campaign is one registry entry. coord/store are nil for a Failed
// campaign restored from a damaged checkpoint (its on-disk evidence is
// preserved untouched).
type campaign struct {
	id      string
	owner   string
	spec    CampaignSpec
	state   string
	stopped bool
	failure string
	strikes int
	coord   *Coordinator
	store   *triage.Store
}

// managerSnapshot is the checkpointed registry. Lifecycle states
// persist; the manager-wide drain flag deliberately does not — drain is
// a property of one process's shutdown, and a restarted coordinator
// resumes the campaigns.
type managerSnapshot struct {
	NextID    int
	Campaigns []campaignRecord
}

type campaignRecord struct {
	ID      string
	Owner   string
	Spec    CampaignSpec
	State   string
	Stopped bool
	Failure string
}

const managerCheckpointFile = "manager.ckpt"

// maxStrikes is how many recovered panics a campaign's machinery may
// take before the campaign transitions to Failed: a one-off panic is
// contained and the caller retries; a persistent one trips the breaker
// instead of looping forever.
const maxStrikes = 3

// NewManager builds a manager, restoring the campaign registry from
// StateDir when one was checkpointed there. Per-campaign restore
// failures are isolated: a campaign whose lease table or finding store
// comes back corrupt transitions to Failed — loudly, evidence preserved
// on disk — while every other campaign resumes.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = cfg.LeaseTTL / 4
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = cfg.PollInterval
		if cfg.RetryAfter < time.Second {
			cfg.RetryAfter = time.Second
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{
		cfg:       cfg,
		campaigns: make(map[string]*campaign),
		done:      make(chan struct{}),
	}
	if cfg.StateDir != "" {
		if err := m.restore(); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.scheduleLocked()
	m.mu.Unlock()
	m.sweep()
	return m, nil
}

// restore loads the registry checkpoint and rebuilds each campaign's
// coordinator from its own lease-table checkpoint. Registry corruption
// is a loud construction error (the operator must decide); per-campaign
// corruption fails only that campaign.
func (m *Manager) restore() error {
	var snap managerSnapshot
	err := checkpoint.Load(filepath.Join(m.cfg.StateDir, managerCheckpointFile), &snap)
	switch {
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		return nil
	case err != nil:
		return fmt.Errorf("orchestrator: manager restore: %w", err)
	}
	m.nextID = snap.NextID
	for _, rec := range snap.Campaigns {
		c := &campaign{
			id: rec.ID, owner: rec.Owner, spec: rec.Spec,
			state: rec.State, stopped: rec.Stopped, failure: rec.Failure,
		}
		m.campaigns[c.id] = c
		m.order = append(m.order, c.id)
		if c.state == StateFailed {
			continue // evidence stays on disk, machinery stays down
		}
		if err := m.buildCampaign(c); err != nil {
			c.state = StateFailed
			c.failure = err.Error()
			m.logf("campaign %s failed to restore (evidence preserved in %s): %v",
				c.id, m.campaignDir(c.id), err)
			continue
		}
		if c.state == StateDraining && c.coord != nil {
			c.coord.SetDraining(true)
		}
		m.logf("campaign %s restored (%s, owner %s)", c.id, c.state, c.owner)
	}
	// Re-persist immediately: restored coordinators bumped their
	// incarnations, and any just-Failed campaign must stay failed if we
	// crash again before the next transition.
	m.checkpointLocked()
	return nil
}

func (m *Manager) campaignDir(id string) string {
	if m.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(m.cfg.StateDir, id)
}

// buildCampaign opens the campaign's finding store and coordinator
// (restoring the lease table when one is checkpointed).
func (m *Manager) buildCampaign(c *campaign) error {
	dir := m.campaignDir(c.id)
	ckptPath, findingsDir := "", ""
	if dir != "" {
		ckptPath = filepath.Join(dir, "leases.ckpt")
		findingsDir = filepath.Join(dir, "findings")
	}
	store, err := triage.Open(findingsDir)
	if err != nil {
		return fmt.Errorf("finding store: %w", err)
	}
	if damaged := store.Damaged(); len(damaged) > 0 {
		m.logf("campaign %s: WARNING: skipping %d corrupt finding file(s): %v", c.id, len(damaged), damaged)
	}
	id := c.id
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec:           c.spec,
		LeaseTTL:       m.cfg.LeaseTTL,
		PollInterval:   m.cfg.PollInterval,
		CheckpointPath: ckptPath,
		Store:          store,
		Now:            m.cfg.Now,
		Logf: func(format string, args ...any) {
			m.logf("[%s] "+format, append([]any{id}, args...)...)
		},
	})
	if err != nil {
		return err
	}
	c.coord = coord
	c.store = store
	return nil
}

// checkpointLocked persists the registry. Like the coordinator's lease
// table, a failed save is logged and tolerated: durability loss must
// not cost availability, it just widens what a restart re-learns.
func (m *Manager) checkpointLocked() {
	if m.cfg.StateDir == "" {
		return
	}
	snap := managerSnapshot{NextID: m.nextID}
	for _, id := range m.order {
		c := m.campaigns[id]
		snap.Campaigns = append(snap.Campaigns, campaignRecord{
			ID: c.id, Owner: c.owner, Spec: c.spec,
			State: c.state, Stopped: c.stopped, Failure: c.failure,
		})
	}
	if err := faultinject.FireErr("orch.manager.checkpoint"); err != nil {
		m.logf("manager checkpoint failed (continuing): %v", err)
		return
	}
	path := filepath.Join(m.cfg.StateDir, managerCheckpointFile)
	if err := checkpoint.Save(path, &snap); err != nil {
		m.logf("manager checkpoint failed (continuing): %v", err)
	}
}

// Submit admits a new campaign: authenticate, check quotas, build the
// campaign machinery, persist the registry. The campaign starts Pending
// and is promoted to Running by the scheduler.
func (m *Manager) Submit(req SubmitRequest) (SubmitResponse, error) {
	client, err := m.cfg.Auth.Authorize(req.Token)
	if err != nil {
		return SubmitResponse{}, err
	}
	// Validate the spec before touching any state: a bad spec is a 400,
	// not a coordinator construction failure.
	if err := req.Spec.Validate(); err != nil {
		return SubmitResponse{}, err
	}
	if client.MaxIters > 0 && req.Spec.TotalIters > client.MaxIters {
		return SubmitResponse{}, fmt.Errorf("orchestrator: campaign budget %d exceeds client %s's per-campaign cap %d",
			req.Spec.TotalIters, client.Name, client.MaxIters)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return SubmitResponse{}, ErrDraining
	}
	if client.MaxCampaigns > 0 {
		active := 0
		for _, c := range m.campaigns {
			if c.owner == client.Name && !terminal(c.state) {
				active++
			}
		}
		if active >= client.MaxCampaigns {
			return SubmitResponse{}, fmt.Errorf("%w: client %s already has %d active campaign(s)",
				ErrQuotaExceeded, client.Name, active)
		}
	}

	m.nextID++
	c := &campaign{
		id:    fmt.Sprintf("c%d", m.nextID),
		owner: client.Name,
		spec:  req.Spec,
		state: StatePending,
	}
	if err := m.buildCampaign(c); err != nil {
		m.nextID-- // nothing registered; the ID is reusable
		return SubmitResponse{}, err
	}
	m.campaigns[c.id] = c
	m.order = append(m.order, c.id)
	m.scheduleLocked()
	m.checkpointLocked()
	m.logf("campaign %s submitted by %s (%s, %d iterations, %d units) — %s",
		c.id, c.owner, c.spec.Tool, c.spec.TotalIters, c.spec.Units, c.state)
	return SubmitResponse{ID: c.id, State: c.state}, nil
}

func terminal(state string) bool {
	return state == StateCompleted || state == StateFailed
}

// scheduleLocked promotes Pending campaigns to Running in submission
// order while the active-campaign budget allows.
func (m *Manager) scheduleLocked() {
	if m.draining {
		return
	}
	active := 0
	for _, c := range m.campaigns {
		if c.state == StateRunning || c.state == StateDraining {
			active++
		}
	}
	for _, id := range m.order {
		if m.cfg.MaxActive > 0 && active >= m.cfg.MaxActive {
			return
		}
		c := m.campaigns[id]
		if c.state != StatePending {
			continue
		}
		c.state = StateRunning
		active++
		m.logf("campaign %s running", c.id)
	}
}

// sweepLocked advances campaigns whose completion is observable without
// touching a coordinator mutex: the Done channel check is a non-blocking
// select, so this is safe to run while holding the manager lock even if
// some campaign's coordinator is mid-merge. Draining campaigns (which
// need Outstanding(), a coordinator-locked call) are advanced by sweep.
func (m *Manager) sweepLocked() {
	changed := false
	for _, id := range m.order {
		c := m.campaigns[id]
		if c.coord == nil || terminal(c.state) {
			continue
		}
		select {
		case <-c.coord.Done():
			c.state = StateCompleted
			changed = true
			m.logf("campaign %s completed", c.id)
		default:
		}
	}
	if changed {
		m.scheduleLocked()
		m.checkpointLocked()
	}
	if m.cfg.ExitWhenIdle && len(m.order) > 0 {
		idle := true
		for _, c := range m.campaigns {
			if !terminal(c.state) {
				idle = false
				break
			}
		}
		if idle {
			m.doneOnce.Do(func() { close(m.done) })
		}
	}
}

// sweep is the full lifecycle sweep: the lock-held fast pass, then the
// draining campaigns — whose "nothing in flight anymore" check takes
// each coordinator's own lock — WITHOUT the manager lock, so one
// campaign's slow merge can never stall another campaign's routing.
func (m *Manager) sweep() {
	m.mu.Lock()
	m.sweepLocked()
	var draining []*campaign
	for _, id := range m.order {
		if c := m.campaigns[id]; c.state == StateDraining && c.coord != nil {
			draining = append(draining, c)
		}
	}
	m.mu.Unlock()
	for _, c := range draining {
		if c.coord.Outstanding() != 0 {
			continue
		}
		// A stopped campaign completes with partial results once nothing
		// is in flight; remaining pending units are abandoned by request.
		if err := c.coord.Checkpoint(); err != nil {
			m.logf("campaign %s: final checkpoint failed (continuing): %v", c.id, err)
		}
		m.mu.Lock()
		if c.state == StateDraining {
			c.state = StateCompleted
			m.logf("campaign %s completed after stop (partial)", c.id)
			m.scheduleLocked()
			m.checkpointLocked()
			m.sweepLocked() // re-evaluate ExitWhenIdle
		}
		m.mu.Unlock()
	}
}

// Done is closed once every campaign is terminal (only meaningful with
// ExitWhenIdle; a service manager never closes it).
func (m *Manager) Done() <-chan struct{} { return m.done }

// guard runs one campaign operation behind the per-campaign fault point
// and a panic barrier. A recovered panic is a strike; at maxStrikes the
// campaign transitions to Failed — its coordinator stops being routed
// to, its evidence stays on disk — and every other campaign is
// untouched. The error return surfaces as a 500, which clients retry
// (by which time a tripped campaign fences them instead).
func (m *Manager) guard(c *campaign, op string, fn func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err = fmt.Errorf("%w: campaign %s: %s panicked: %v", ErrCampaignFault, c.id, op, r)
		m.mu.Lock()
		defer m.mu.Unlock()
		if terminal(c.state) {
			return
		}
		c.strikes++
		m.logf("campaign %s: %s panicked (strike %d/%d): %v", c.id, op, c.strikes, maxStrikes, r)
		if c.strikes >= maxStrikes {
			c.state = StateFailed
			c.failure = fmt.Sprintf("%s panicked %d times, last: %v", op, c.strikes, r)
			m.logf("campaign %s FAILED (evidence preserved in %s): %s", c.id, m.campaignDir(c.id), c.failure)
			m.scheduleLocked()
			m.checkpointLocked()
		}
	}()
	// The per-campaign fault point: tests arm "orch.campaign.<id>" to
	// panic this campaign's machinery deterministically and prove the
	// blast radius stops at the campaign boundary.
	faultinject.Fire("orch.campaign." + c.id)
	fn()
	return nil
}

// Register names a worker. Worker identity is manager-wide; campaigns
// learn of a worker when it first touches their lease table.
func (m *Manager) Register(req RegisterRequest) RegisterResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	name := req.Worker
	if name == "" {
		m.nextWorker++
		name = fmt.Sprintf("worker-%d", m.nextWorker)
	}
	live := 0
	for _, c := range m.campaigns {
		if !terminal(c.state) {
			live++
		}
	}
	m.logf("worker %s registered (%d active campaign(s))", name, live)
	return RegisterResponse{Worker: name, Campaigns: live}
}

// Lease routes a work-unit request. A targeted request goes to its
// campaign, and waits while that campaign is still Pending; an open one
// sweeps Running campaigns in submission order and grants the first
// available unit. Failed and Draining campaigns are skipped — failure
// isolation and drain both happen here, at the routing layer.
func (m *Manager) Lease(req LeaseRequest) LeaseResponse {
	m.sweep()
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return LeaseResponse{Status: StatusDrain}
	}
	var candidates []*campaign
	if req.Campaign != "" {
		c := m.campaigns[req.Campaign]
		if c == nil || c.coord == nil || terminal(c.state) {
			m.mu.Unlock()
			return LeaseResponse{Status: StatusDone, Campaign: req.Campaign}
		}
		if c.state == StateDraining {
			m.mu.Unlock()
			return LeaseResponse{Status: StatusDrain, Campaign: req.Campaign}
		}
		if c.state == StatePending {
			// Queued behind MaxActive: liveCampaign would fence any
			// lease granted now, so the worker waits for its turn.
			m.mu.Unlock()
			return LeaseResponse{Status: StatusWait, Campaign: req.Campaign, PollMillis: m.cfg.PollInterval.Milliseconds()}
		}
		candidates = []*campaign{c}
	} else {
		for _, id := range m.order {
			if c := m.campaigns[id]; c.state == StateRunning && c.coord != nil {
				candidates = append(candidates, c)
			}
		}
	}
	anyLeft := m.anyNonTerminalLocked()
	m.mu.Unlock()

	for _, c := range candidates {
		var resp LeaseResponse
		if err := m.guard(c, "lease", func() { resp = c.coord.Lease(req) }); err != nil {
			continue // this campaign is having a bad day; try the next
		}
		switch resp.Status {
		case StatusLease:
			resp.Campaign = c.id
			return resp
		case StatusDone:
			m.mu.Lock()
			m.sweepLocked()
			m.mu.Unlock()
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked()
	if m.anyNonTerminalLocked() || anyLeft && !m.cfg.ExitWhenIdle {
		return LeaseResponse{Status: StatusWait, PollMillis: m.cfg.PollInterval.Milliseconds()}
	}
	if m.cfg.ExitWhenIdle && len(m.order) > 0 {
		return LeaseResponse{Status: StatusDone}
	}
	// A service with no work idles its workers instead of dismissing
	// them: the next submission puts them back to work.
	return LeaseResponse{Status: StatusWait, PollMillis: m.cfg.PollInterval.Milliseconds()}
}

func (m *Manager) anyNonTerminalLocked() bool {
	for _, c := range m.campaigns {
		if !terminal(c.state) {
			return true
		}
	}
	return false
}

// Heartbeat routes a lease keep-alive to its campaign. Unknown or
// terminal campaigns fence the caller — its unit no longer matters.
func (m *Manager) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c := m.liveCampaign(req.Campaign)
	if c == nil {
		return HeartbeatResponse{Status: StatusFenced}
	}
	resp := HeartbeatResponse{Status: StatusFenced}
	if err := m.guard(c, "heartbeat", func() { resp = c.coord.Heartbeat(req) }); err != nil {
		return HeartbeatResponse{Status: StatusFenced}
	}
	return resp
}

// Result routes a completed unit to its campaign, then sweeps for
// lifecycle transitions (this may be the campaign's last unit).
func (m *Manager) Result(req ResultRequest) (ResultResponse, error) {
	c := m.liveCampaign(req.Campaign)
	if c == nil {
		return ResultResponse{Status: StatusFenced}, nil
	}
	var resp ResultResponse
	var rerr error
	if err := m.guard(c, "result", func() { resp, rerr = c.coord.Result(req) }); err != nil {
		return ResultResponse{}, err
	}
	if rerr != nil {
		return ResultResponse{}, rerr
	}
	m.sweep()
	return resp, nil
}

// liveCampaign returns the campaign iff it can still accept lease
// traffic (Running or Draining — draining units finish their work).
func (m *Manager) liveCampaign(id string) *campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.campaigns[id]
	if c == nil || c.coord == nil || terminal(c.state) || c.state == StatePending {
		return nil
	}
	return c
}

// Stop transitions a campaign toward Completed without waiting for its
// remaining units: Pending stops immediately, Running drains (in-flight
// units finish or expire, then the sweep completes it with partial
// results). Only the owning client (or anyone, with auth disabled) may
// stop a campaign.
func (m *Manager) Stop(req StopRequest) (StopResponse, error) {
	client, err := m.cfg.Auth.Authorize(req.Token)
	if err != nil {
		return StopResponse{}, err
	}
	m.mu.Lock()
	c := m.campaigns[req.ID]
	if c == nil {
		m.mu.Unlock()
		return StopResponse{}, fmt.Errorf("orchestrator: no campaign %q", req.ID)
	}
	if m.cfg.Auth != nil && client.Name != c.owner {
		m.mu.Unlock()
		return StopResponse{}, fmt.Errorf("%w: campaign %s belongs to %s", ErrUnauthorized, c.id, c.owner)
	}
	switch c.state {
	case StatePending:
		c.state = StateCompleted
		c.stopped = true
		m.logf("campaign %s stopped before start", c.id)
		m.scheduleLocked()
		m.checkpointLocked()
	case StateRunning:
		c.state = StateDraining
		c.stopped = true
		if c.coord != nil {
			c.coord.SetDraining(true)
		}
		m.logf("campaign %s draining (stopped by %s)", c.id, client.Name)
		m.checkpointLocked()
	}
	m.mu.Unlock()
	m.sweep() // a drained campaign with nothing leased completes right away
	m.mu.Lock()
	defer m.mu.Unlock()
	return StopResponse{ID: c.id, State: c.state}, nil
}

// Drain begins a coordinator-wide graceful shutdown: no campaign grants
// further leases, in-flight units complete or expire, and lifecycle
// states are left as they are (persisted Running campaigns resume under
// the next incarnation). Use Quiesced to learn when in-flight work has
// resolved and CheckpointAll for the final write.
func (m *Manager) Drain() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.draining {
		m.draining = true
		n := 0
		for _, c := range m.campaigns {
			if !terminal(c.state) {
				n++
			}
			if c.coord != nil && !terminal(c.state) {
				c.coord.SetDraining(true)
			}
		}
		m.logf("draining: %d active campaign(s), waiting for in-flight units", n)
		return n
	}
	n := 0
	for _, c := range m.campaigns {
		if !terminal(c.state) {
			n++
		}
	}
	return n
}

// Draining reports whether a coordinator-wide drain is in progress.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Quiesced reports whether every in-flight lease has resolved
// (submitted or expired against the current clock) — the condition a
// draining daemon waits for before its final checkpoint and exit.
func (m *Manager) Quiesced() bool {
	m.sweep()
	m.mu.Lock()
	var live []*campaign
	for _, id := range m.order {
		if c := m.campaigns[id]; c.coord != nil && !terminal(c.state) {
			live = append(live, c)
		}
	}
	m.mu.Unlock()
	for _, c := range live {
		if c.coord.Outstanding() > 0 {
			return false
		}
	}
	return true
}

// CheckpointAll persists every live campaign's lease table and the
// registry — the drain protocol's final write. Failures are logged and
// tolerated (determinism makes a stale table safe), and the healthy
// campaigns' checkpoints still land.
func (m *Manager) CheckpointAll() {
	m.mu.Lock()
	var live []*campaign
	for _, id := range m.order {
		if c := m.campaigns[id]; c.coord != nil && !terminal(c.state) {
			live = append(live, c)
		}
	}
	m.mu.Unlock()
	for _, c := range live {
		if err := c.coord.Checkpoint(); err != nil {
			m.logf("campaign %s: drain checkpoint failed (continuing): %v", c.id, err)
		}
	}
	m.mu.Lock()
	m.checkpointLocked()
	m.mu.Unlock()
}

// List enumerates campaigns in submission order.
func (m *Manager) List(req ListRequest) (ListResponse, error) {
	if _, err := m.cfg.Auth.Authorize(req.Token); err != nil {
		return ListResponse{}, err
	}
	m.sweep()
	m.mu.Lock()
	resp := ListResponse{Draining: m.draining}
	var rows []*campaign
	for _, id := range m.order {
		rows = append(rows, m.campaigns[id])
	}
	m.mu.Unlock()
	for _, c := range rows {
		info := CampaignInfo{
			ID: c.id, Owner: c.owner, State: c.state,
			Stopped: c.stopped, Failure: c.failure,
			Spec: c.spec, Units: c.spec.Units,
		}
		if c.coord != nil {
			st := c.coord.Status()
			info.Iterations = st.Iterations
			info.UnitsDone = st.UnitsDone
		}
		resp.Campaigns = append(resp.Campaigns, info)
	}
	return resp, nil
}

// Status snapshots one campaign's lease table. An empty Campaign
// resolves to the only campaign when exactly one exists (the
// single-campaign bvfd conventions keep working).
func (m *Manager) Status(req StatusRequest) (StatusResponse, error) {
	m.mu.Lock()
	id := req.Campaign
	if id == "" {
		if len(m.order) != 1 {
			m.mu.Unlock()
			return StatusResponse{}, fmt.Errorf("orchestrator: %d campaigns; name one", len(m.order))
		}
		id = m.order[0]
	}
	c := m.campaigns[id]
	m.mu.Unlock()
	if c == nil {
		return StatusResponse{}, fmt.Errorf("orchestrator: no campaign %q", id)
	}
	if c.coord == nil {
		return StatusResponse{Campaign: c.id, State: c.state, Spec: c.spec}, nil
	}
	st := c.coord.Status()
	st.Campaign = c.id
	m.mu.Lock()
	st.State = c.state
	m.mu.Unlock()
	return st, nil
}

// MergedStats returns a campaign's merged statistics (read-only), or
// nil when the campaign is unknown or its machinery is down.
func (m *Manager) MergedStats(id string) *core.Stats {
	m.mu.Lock()
	c := m.campaigns[id]
	m.mu.Unlock()
	if c == nil || c.coord == nil {
		return nil
	}
	return c.coord.Merged()
}

// Store returns a campaign's finding store, or nil.
func (m *Manager) Store(id string) *triage.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.campaigns[id]; c != nil {
		return c.store
	}
	return nil
}

// Refunds sums refunded leases across campaigns.
func (m *Manager) Refunds() int {
	m.mu.Lock()
	var live []*campaign
	for _, c := range m.campaigns {
		if c.coord != nil {
			live = append(live, c)
		}
	}
	m.mu.Unlock()
	n := 0
	for _, c := range live {
		n += c.coord.Refunds()
	}
	return n
}

// CampaignState returns a campaign's lifecycle state ("" if unknown).
func (m *Manager) CampaignState(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.campaigns[id]; c != nil {
		return c.state
	}
	return ""
}

// RetryAfterHint is the backoff hint the server attaches to shed load.
func (m *Manager) RetryAfterHint() time.Duration { return m.cfg.RetryAfter }

// MaxInflight exposes the shedding threshold to the HTTP layer.
func (m *Manager) MaxInflight() int { return m.cfg.MaxInflight }

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}
