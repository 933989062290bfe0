// Package orchestrator is the fuzzing-as-a-service control plane: a
// coordinator daemon (cmd/bvfd) runs a Manager of concurrent campaigns,
// each split into leased work units handed to worker processes
// (bvf -worker) over a small HTTP+JSON protocol; workers execute each
// unit through the existing core.ParallelCampaign engine, heartbeat
// while they work, and submit the unit's statistics when done.
// Campaigns are submitted, listed, inspected, stopped, and drained over
// the same control plane, each with its own lease table, iteration
// axis, and crash-consistent findings store, driven by an explicit
// lifecycle state machine (Pending → Running → Draining →
// Completed/Failed) that is checkpointed and restored across
// coordinator restarts.
//
// The robustness model is the PR 2 shard supervisor promoted from
// goroutines to processes:
//
//   - Work units are leased, never assigned: a lease carries a fencing
//     token and a wall-clock TTL kept alive by heartbeats. A worker that
//     dies (SIGKILL, OOM, network partition) simply stops heartbeating;
//     the lease expires and the unit goes back to the pending queue with
//     its FULL iteration quota — results only commit on unit completion,
//     so a dead worker never loses budget (quota refunding).
//   - Fencing tokens are (incarnation, epoch) pairs: the epoch counts
//     lease grants within one coordinator process, and the incarnation is
//     bumped — and durably checkpointed — before a restarted coordinator
//     grants anything. A zombie worker's late heartbeat or result for a
//     superseded lease never matches the current token and is rejected,
//     across coordinator restarts included.
//   - Every worker→coordinator call retries with seeded-jittered
//     exponential backoff (internal/backoff), so a briefly unreachable
//     coordinator degrades throughput instead of killing workers.
//   - Unit execution is deterministic in (seed, quota), so a re-leased
//     unit reproduces exactly the statistics its dead first owner would
//     have produced: a faulted campaign and an unfaulted one converge on
//     the same iteration total and the same deduplicated BugKey set.
package orchestrator

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/kernel"
)

// CampaignSpec describes the campaign a coordinator is running; workers
// receive it at registration and build their unit campaigns from it.
type CampaignSpec struct {
	// Tool selects the program source: "bvf", "syzkaller", "buzzer" or
	// "buzzer-random" (same vocabulary as cmd/bvf's -tool).
	Tool string
	// Version is the kernel version string ("v5.15", "v6.1", "bpf-next").
	Version string
	// Sanitize enables the BVF sanitation patches.
	Sanitize bool
	// Oracle arms the abstract-state soundness checker.
	Oracle bool
	// Seed is the campaign base seed; unit i runs with Seed+i, exactly
	// like shard i of a single-process core.ParallelCampaign.
	Seed int64
	// TotalIters is the campaign-wide iteration budget, split across
	// units the way ParallelCampaign splits it across shards.
	TotalIters int
	// Units is the number of work units (== the shard count of the
	// equivalent single-process campaign).
	Units int
	// SyncEvery bounds a worker's in-unit round length; it controls how
	// quickly a fenced worker can abandon a unit (graceful stops land on
	// round edges) and does not affect unit results — a unit is a single
	// shard, and single-shard rounds exchange nothing.
	SyncEvery int
}

// KernelVersion parses the spec's Version field.
func (s CampaignSpec) KernelVersion() (kernel.Version, error) {
	return ParseVersion(s.Version)
}

// Validate reports whether a coordinator can run the spec: at least one
// unit, a positive budget, and a known tool and kernel version.
func (s CampaignSpec) Validate() error {
	if s.Units <= 0 {
		return errors.New("orchestrator: spec needs at least one unit")
	}
	if s.TotalIters <= 0 {
		return errors.New("orchestrator: spec needs a positive iteration budget")
	}
	_, err := s.CampaignConfig()
	return err
}

// CampaignConfig maps the spec onto the configuration every shard of its
// campaign runs, in bvf and in a bvfd unit alike: the tool's program
// source, sanitation only for BVF (the baselines run without the
// patches), no mutation for the random-bytes fuzzer, the kernel version,
// the oracle and the base seed.
func (s CampaignSpec) CampaignConfig() (core.CampaignConfig, error) {
	ver, err := s.KernelVersion()
	if err != nil {
		return core.CampaignConfig{}, err
	}
	cc := core.CampaignConfig{Version: ver, Oracle: s.Oracle, Seed: s.Seed}
	switch s.Tool {
	case "bvf":
		cc.Source, cc.Sanitize = core.BVFSource(ver.HasKfuncs()), s.Sanitize
	case "syzkaller":
		cc.Source = baseline.Syz{}
	case "buzzer":
		cc.Source = baseline.Buzz{Mode: baseline.BuzzALUJmp}
	case "buzzer-random":
		cc.Source, cc.MutateBias = baseline.Buzz{Mode: baseline.BuzzRandom}, -1
	default:
		return core.CampaignConfig{}, fmt.Errorf("orchestrator: unknown tool %q", s.Tool)
	}
	return cc, nil
}

// ParseVersion maps a version string onto kernel.Version.
func ParseVersion(s string) (kernel.Version, error) {
	switch s {
	case "v5.15":
		return kernel.V515, nil
	case "v6.1":
		return kernel.V61, nil
	case "bpf-next":
		return kernel.BPFNext, nil
	}
	return 0, fmt.Errorf("orchestrator: unknown kernel version %q", s)
}

// Unit is one leased work unit: a seed (the campaign base seed plus the
// unit index) and an iteration quota. Unit i of a spec corresponds
// one-to-one to shard i of the equivalent single-process campaign.
type Unit struct {
	ID    int
	Seed  int64
	Quota int
}

// Token is a lease fencing token. Tokens compare by value; a heartbeat
// or result whose token is not exactly the unit's current one is
// rejected as coming from a superseded lease.
type Token struct {
	// Incarnation identifies the coordinator process generation. It is
	// durably bumped before a restarted coordinator grants any lease, so
	// tokens from before a crash can never match tokens granted after.
	Incarnation int64
	// Epoch counts lease grants within one incarnation.
	Epoch int64
}

func (t Token) String() string { return fmt.Sprintf("%d.%d", t.Incarnation, t.Epoch) }

// Lease response statuses.
const (
	// StatusLease: the response carries a granted lease.
	StatusLease = "lease"
	// StatusWait: no unit is free right now (all leased); poll again.
	StatusWait = "wait"
	// StatusDone: the campaign is complete; the worker should exit.
	StatusDone = "done"
	// StatusDrain: the coordinator (or the addressed campaign) is
	// draining — no new leases are granted. A worker should exit cleanly
	// and re-register with another coordinator; its just-submitted
	// results were accepted (drain never discards in-flight work).
	StatusDrain = "drain"
	// StatusOK acknowledges a heartbeat.
	StatusOK = "ok"
	// StatusFenced rejects a call carrying a superseded lease token.
	StatusFenced = "fenced"
	// StatusAccepted acknowledges a result (idempotently: resubmitting
	// the same unit under the same token re-acknowledges without
	// re-merging).
	StatusAccepted = "accepted"
)

// Campaign lifecycle states. The state machine is
// Pending → Running → Draining → Completed/Failed:
//
//   - Pending: admitted but not yet lease-eligible (the manager bounds
//     how many campaigns run concurrently).
//   - Running: units are leased to workers.
//   - Draining: no new leases; in-flight units complete or expire.
//   - Completed: every unit done, or a stopped campaign's in-flight
//     units resolved (partial results, Stopped=true).
//   - Failed: the campaign's machinery panicked past its strike budget
//     or its persisted state restored corrupt. Terminal; its evidence
//     (findings store, last checkpoint) is preserved on disk and every
//     other campaign keeps leasing.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateDraining  = "draining"
	StateCompleted = "completed"
	StateFailed    = "failed"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Worker is the caller's chosen identity; empty lets the coordinator
	// assign one.
	Worker string
}

// RegisterResponse names the worker. The campaign specs themselves ride
// on each lease (a multi-campaign coordinator hands out units from
// whichever campaigns are running).
type RegisterResponse struct {
	Worker string
	// Campaigns is the number of non-terminal campaigns at registration,
	// for operator-facing logs only.
	Campaigns int
}

// LeaseRequest asks for a work unit.
type LeaseRequest struct {
	Worker string
	// Campaign, when non-empty, restricts the request to that campaign;
	// empty lets the coordinator pick any running campaign's unit.
	Campaign string
}

// LeaseResponse grants a unit (StatusLease), asks the worker to poll
// again (StatusWait), ends the worker (StatusDone), or tells it the
// coordinator is draining (StatusDrain).
type LeaseResponse struct {
	Status string
	// Campaign identifies the granting campaign; heartbeats and results
	// for the unit must carry it back.
	Campaign string
	// Spec is the granting campaign's spec; the worker builds the unit
	// campaign from it.
	Spec  CampaignSpec
	Unit  Unit
	Token Token
	// TTLMillis is the lease TTL; the worker must heartbeat well inside
	// it (TTL/3 is the convention) or the lease expires.
	TTLMillis int64
	// PollMillis is the suggested wait before the next lease request
	// when Status is StatusWait.
	PollMillis int64
}

// HeartbeatRequest keeps a lease alive and reports progress.
type HeartbeatRequest struct {
	Worker   string
	Campaign string
	UnitID   int
	Token    Token
	// Iters is the unit-local iteration progress, for observability; it
	// carries no accounting weight (quota refunds are all-or-nothing).
	Iters int
}

// HeartbeatResponse is StatusOK or StatusFenced. A fenced worker must
// abandon the unit: its lease has been superseded and any result it
// produces will be rejected.
type HeartbeatResponse struct {
	Status string
}

// ResultRequest submits a completed unit's statistics.
type ResultRequest struct {
	Worker   string
	Campaign string
	UnitID   int
	Token    Token
	// Stats is the gob-encoded *core.Stats of the unit campaign
	// (EncodeStats/DecodeStats).
	Stats []byte
}

// ResultResponse is StatusAccepted or StatusFenced.
type ResultResponse struct {
	Status string
}

// StatusRequest asks for one campaign's lease-table snapshot. An empty
// Campaign resolves to the only campaign when exactly one exists.
type StatusRequest struct {
	Campaign string
}

// StatusResponse is one campaign's observable state: the e2e harness
// polls it to find a mid-lease victim, operators read it as a dashboard.
type StatusResponse struct {
	Campaign       string
	State          string // lifecycle state (StatePending..StateFailed)
	Spec           CampaignSpec
	Done           bool
	Iterations     int // merged iterations from completed units
	RefundedLeases int // expired leases whose quota went back to pending
	UnitsDone      int
	Units          []UnitStatus
	Workers        []WorkerStatus
	Bugs           []string // sorted BugKey strings of the merged stats
	DamagedStore   []string // corrupt finding files the registry skipped
}

// SubmitRequest submits a new campaign to the coordinator.
type SubmitRequest struct {
	// Token authenticates the submitting client when the coordinator has
	// an auth table; ignored (open access) otherwise.
	Token string
	Spec  CampaignSpec
}

// SubmitResponse acknowledges an admitted campaign.
type SubmitResponse struct {
	ID    string
	State string
}

// ListRequest asks for the campaign registry.
type ListRequest struct {
	Token string
}

// ListResponse enumerates campaigns in submission order.
type ListResponse struct {
	// Draining reports a coordinator-wide drain in progress.
	Draining  bool
	Campaigns []CampaignInfo
}

// CampaignInfo is one campaign's registry row.
type CampaignInfo struct {
	ID    string
	Owner string // authenticated client that submitted it
	State string
	// Stopped marks a campaign that was stopped by request; a stopped
	// campaign Completes with partial results once its in-flight units
	// resolve.
	Stopped bool
	// Failure is the reason a Failed campaign failed.
	Failure    string
	Spec       CampaignSpec
	Iterations int // merged so far
	UnitsDone  int
	Units      int
}

// StopRequest asks the coordinator to stop a campaign: no new leases,
// in-flight units finish (or expire), then the campaign Completes with
// partial results.
type StopRequest struct {
	Token string
	ID    string
}

// StopResponse reports the campaign's post-stop state.
type StopResponse struct {
	ID    string
	State string
}

// DrainRequest asks the whole coordinator to drain: every campaign
// stops granting leases, in-flight units complete or expire, state is
// checkpointed, and the process exits cleanly. Campaign lifecycle
// states are untouched — a restarted coordinator resumes them.
type DrainRequest struct {
	Token string
}

// DrainResponse acknowledges the drain.
type DrainResponse struct {
	// Campaigns is the number of non-terminal campaigns being drained.
	Campaigns int
}

// UnitStatus is one unit's lease-table row.
type UnitStatus struct {
	ID     int
	Quota  int
	State  string // "pending", "leased", "done"
	Worker string
	Token  Token
	// Iters is the latest heartbeat progress for leased units.
	Iters int
}

// WorkerStatus is one registered worker's liveness row.
type WorkerStatus struct {
	Name string
	// Live is true while the worker has called in within one lease TTL.
	Live      bool
	UnitsDone int
}

// EncodeStats gob-encodes a unit campaign's statistics for a
// ResultRequest.
func EncodeStats(st *core.Stats) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("orchestrator: encode stats: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeStats decodes a ResultRequest payload.
func DecodeStats(b []byte) (*core.Stats, error) {
	var st core.Stats
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return nil, fmt.Errorf("orchestrator: decode stats: %w", err)
	}
	return &st, nil
}
