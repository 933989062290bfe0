package core

import (
	"fmt"
	"sort"

	"repro/internal/bugs"
	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// BugKey identifies one distinct bug manifestation: the seeded bug an
// anomaly was attributed to plus the oracle signature it fired under.
// Keying Stats.Bugs on the full signature (rather than the bug ID alone)
// keeps distinct manifestations of one knob — e.g. a KASAN out-of-bounds
// and an alu-limit violation both rooted in the same range-analysis bug —
// as separate records instead of collapsing them into whichever shard
// happened to merge first.
type BugKey struct {
	ID        bugs.ID
	Indicator kernel.Indicator
	Kind      string
}

func (k BugKey) String() string {
	return fmt.Sprintf("%v/%v/%s", k.ID, k.Indicator, k.Kind)
}

// BugRecord describes one discovered bug.
type BugRecord struct {
	ID        bugs.ID
	Kind      string
	Indicator kernel.Indicator
	FoundAt   int // iteration index
	Err       string
	Program   *isa.Program
	// Deprecated: Minimized is never set by a campaign. The triage
	// gauntlet's Finding.Minimized holds the shrunken reproducer.
	Minimized *isa.Program
}

// CurvePoint samples the coverage growth curve.
type CurvePoint struct {
	Iteration int
	Branches  int
}

// Stats aggregates one campaign's results — everything the §6
// experiments report.
type Stats struct {
	Tool       string
	Version    kernel.Version
	Iterations int
	Accepted   int
	// ErrnoHist histograms verifier rejections by errno (§6.3).
	ErrnoHist map[int]int
	// RejectReasons histograms the first word of rejection messages.
	RejectReasons map[string]int
	// Coverage is the accumulated verifier branch coverage.
	Coverage *coverage.Map
	// Curve samples coverage over iterations (Figure 6).
	Curve []CurvePoint
	// Bugs maps each attributed bug manifestation (bug ID + oracle
	// signature) to its first discovery.
	Bugs map[BugKey]*BugRecord
	// OtherAnomalies counts unattributed anomalies by kind.
	OtherAnomalies map[string]int
	// UnattributedSamples keeps a few unattributed anomalies with their
	// programs for manual triage (§6.5's "Bug Triage" step).
	UnattributedSamples []BugRecord
	// CorpusSize is the final corpus size (coverage-novel programs).
	CorpusSize int
	// MutateBatches counts corpus-parent picks by the mutation scheduler
	// (each starts a sibling batch; size 1 degenerates to classic
	// one-mutant-per-pick scheduling) and MutateSiblings counts the
	// mutants those batches emitted, so MutateSiblings/MutateBatches is
	// the effective batch size the reporter and bench reports show.
	MutateBatches  int
	MutateSiblings int
	// InsnClassMix counts generated instructions by class, for the
	// Buzzer comparison ("88.4%+ instructions are ALU and JMP").
	InsnClassMix map[string]int

	// StageNanos accumulates per-stage wall-clock nanoseconds, keyed by
	// pipeline stage ("gen", "verify", "cache", "exec", "oracle",
	// "triage"). It answers "where does an iteration's time go" without a
	// profiler attached.
	StageNanos map[string]int64
	// PeakWorklist is the largest verifier exploration worklist observed
	// across every accepted program (Result.PeakStates high-water mark).
	PeakWorklist int

	// SoundnessChecks counts (instruction, register) claims the abstract-
	// state oracle asserted across all oracle replays (CampaignConfig.Oracle
	// only; oracle replay time lands in StageNanos["oracle"]).
	SoundnessChecks int
	// SoundnessViolations counts oracle replays that hit a violation.
	SoundnessViolations int

	// WatchdogTrips counts wall-clock watchdog activations by stage
	// ("verify" for worklist explosions, "exec" for runaway executions).
	WatchdogTrips map[string]int
	// TimeoutSamples keeps a few watchdog-tripped programs for triage,
	// analogous to UnattributedSamples.
	TimeoutSamples []TimeoutRecord
	// HarnessCrashes samples contained harness panics (capped; CrashCount
	// is the full tally).
	HarnessCrashes []HarnessCrash
	// CrashCount counts every contained harness panic.
	CrashCount int
	// ShardRestarts counts supervised shard rebuilds after shard-level
	// panics.
	ShardRestarts int

	// Verdict-cache effectiveness (CampaignConfig.Cache only; all zero
	// otherwise). Hits/Misses count whole-program verdict lookups, and
	// CacheInsertedBytes estimates the memory volume of the entries this
	// campaign inserted.
	CacheHits          int64
	CacheMisses        int64
	CacheInsertedBytes int64
}

// TimeoutRecord is one watchdog-tripped program kept for triage.
type TimeoutRecord struct {
	// Stage is "verify" or "exec".
	Stage string
	// FoundAt is the iteration index (global axis after a parallel merge).
	FoundAt int
	Program *isa.Program
}

// maxUnattributedSamples caps the triage-sample buffer.
const maxUnattributedSamples = 8

// maxTimeoutSamples caps the watchdog triage buffer.
const maxTimeoutSamples = 8

// maxHarnessCrashSamples caps the contained-panic sample buffer.
const maxHarnessCrashSamples = 16

// NewStats returns an empty, fully initialized Stats value.
func NewStats(tool string, v kernel.Version) *Stats {
	return &Stats{
		Tool:           tool,
		Version:        v,
		ErrnoHist:      make(map[int]int),
		RejectReasons:  make(map[string]int),
		Coverage:       coverage.NewMap(),
		Bugs:           make(map[BugKey]*BugRecord),
		OtherAnomalies: make(map[string]int),
		InsnClassMix:   make(map[string]int),
		StageNanos:     make(map[string]int64),
		WatchdogTrips:  make(map[string]int),
	}
}

// AcceptanceRate returns the fraction of generated programs that passed
// the verifier.
func (s *Stats) AcceptanceRate() float64 {
	if s.Iterations == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Iterations)
}

// VerifierBugsFound counts discovered verifier correctness bugs. Multiple
// manifestations of one bug knob count once.
func (s *Stats) VerifierBugsFound() int {
	seen := map[bugs.ID]bool{}
	for key := range s.Bugs {
		if key.ID.IsVerifierCorrectness() || key.ID == bugs.CVE2022_23222 {
			seen[key.ID] = true
		}
	}
	return len(seen)
}

// BugIDs returns the distinct discovered bug ids in ascending order.
func (s *Stats) BugIDs() []bugs.ID {
	seen := map[bugs.ID]bool{}
	for key := range s.Bugs {
		seen[key.ID] = true
	}
	out := make([]bugs.ID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasBug reports whether any manifestation of the bug was discovered.
func (s *Stats) HasBug(id bugs.ID) bool { return s.BugByID(id) != nil }

// BugByID returns the earliest-found record of any manifestation of the
// bug, or nil when it was not discovered.
func (s *Stats) BugByID(id bugs.ID) *BugRecord {
	var best *BugRecord
	for key, rec := range s.Bugs {
		if key.ID == id && (best == nil || rec.FoundAt < best.FoundAt) {
			best = rec
		}
	}
	return best
}

// Merge folds other into s: counters and histograms add, coverage maps
// merge, bug records deduplicate keeping the earliest FoundAt, and curve
// points combine on a shared iteration axis. Callers merging shard-local
// statistics must first translate other's iteration-indexed fields
// (BugRecord.FoundAt, CurvePoint.Iteration) onto the global axis with
// OnGlobalAxis. other is not modified.
func (s *Stats) Merge(other *Stats) {
	if other == nil {
		return
	}
	s.Iterations += other.Iterations
	s.Accepted += other.Accepted
	s.CorpusSize += other.CorpusSize
	s.MutateBatches += other.MutateBatches
	s.MutateSiblings += other.MutateSiblings
	for k, v := range other.ErrnoHist {
		s.ErrnoHist[k] += v
	}
	for k, v := range other.RejectReasons {
		s.RejectReasons[k] += v
	}
	for k, v := range other.OtherAnomalies {
		s.OtherAnomalies[k] += v
	}
	for k, v := range other.InsnClassMix {
		s.InsnClassMix[k] += v
	}
	s.Coverage.Merge(other.Coverage)
	for key, rec := range other.Bugs {
		if cur, ok := s.Bugs[key]; !ok || rec.FoundAt < cur.FoundAt {
			s.Bugs[key] = rec
		}
	}
	for _, u := range other.UnattributedSamples {
		if len(s.UnattributedSamples) >= maxUnattributedSamples {
			break
		}
		s.UnattributedSamples = append(s.UnattributedSamples, u)
	}
	if len(other.StageNanos) > 0 && s.StageNanos == nil {
		s.StageNanos = make(map[string]int64)
	}
	for k, v := range other.StageNanos {
		s.StageNanos[k] += v
	}
	if other.PeakWorklist > s.PeakWorklist {
		s.PeakWorklist = other.PeakWorklist
	}
	s.SoundnessChecks += other.SoundnessChecks
	s.SoundnessViolations += other.SoundnessViolations
	if len(other.WatchdogTrips) > 0 && s.WatchdogTrips == nil {
		s.WatchdogTrips = make(map[string]int)
	}
	for k, v := range other.WatchdogTrips {
		s.WatchdogTrips[k] += v
	}
	for _, t := range other.TimeoutSamples {
		if len(s.TimeoutSamples) >= maxTimeoutSamples {
			break
		}
		s.TimeoutSamples = append(s.TimeoutSamples, t)
	}
	for _, c := range other.HarnessCrashes {
		if len(s.HarnessCrashes) >= maxHarnessCrashSamples {
			break
		}
		s.HarnessCrashes = append(s.HarnessCrashes, c)
	}
	s.CrashCount += other.CrashCount
	s.ShardRestarts += other.ShardRestarts
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.CacheInsertedBytes += other.CacheInsertedBytes
	s.Curve = mergeCurves(s.Curve, other.Curve)
}

// globalIteration maps a shard-local iteration index onto the merged
// axis: by local iteration i the whole fleet of shards has executed about
// i*shards iterations, and the shard index breaks ties so merged records
// from different shards never collide.
func globalIteration(local, shard, shards int) int { return local*shards + shard }

// OnGlobalAxis returns a shallow copy of one shard's statistics with its
// bug, unattributed, timeout and harness-crash records and its coverage
// curve moved onto the merged axis (globalIteration), ready for Merge. A
// distributed campaign merges each unit's statistics through it too. s
// is not modified.
func (s *Stats) OnGlobalAxis(shard, shards int) *Stats {
	global := func(local int) int { return globalIteration(local, shard, shards) }
	t := *s
	t.Bugs = make(map[BugKey]*BugRecord, len(s.Bugs))
	for key, rec := range s.Bugs {
		r := *rec
		r.FoundAt = global(rec.FoundAt)
		t.Bugs[key] = &r
	}
	t.UnattributedSamples = nil
	for _, u := range s.UnattributedSamples {
		u.FoundAt = global(u.FoundAt)
		t.UnattributedSamples = append(t.UnattributedSamples, u)
	}
	t.TimeoutSamples = nil
	for _, ts := range s.TimeoutSamples {
		ts.FoundAt = global(ts.FoundAt)
		t.TimeoutSamples = append(t.TimeoutSamples, ts)
	}
	t.HarnessCrashes = nil
	for _, h := range s.HarnessCrashes {
		h.Shard = shard
		h.Iteration = global(h.Iteration)
		t.HarnessCrashes = append(t.HarnessCrashes, h)
	}
	t.Curve = nil
	for _, pt := range s.Curve {
		t.Curve = append(t.Curve, CurvePoint{Iteration: global(pt.Iteration), Branches: pt.Branches})
	}
	return &t
}

// mergeCurves combines two coverage curves sharing an iteration axis into
// one strictly-increasing-iteration, non-decreasing-branches curve. Points
// at the same iteration keep the larger branch count; a running maximum
// restores monotonicity where one curve's early points interleave with the
// other's later ones.
func mergeCurves(a, b []CurvePoint) []CurvePoint {
	if len(a) == 0 {
		return append([]CurvePoint(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	all := make([]CurvePoint, 0, len(a)+len(b))
	all = append(all, a...)
	all = append(all, b...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Iteration != all[j].Iteration {
			return all[i].Iteration < all[j].Iteration
		}
		return all[i].Branches < all[j].Branches
	})
	out := all[:0]
	best := 0
	for _, pt := range all {
		if pt.Branches > best {
			best = pt.Branches
		}
		if n := len(out); n > 0 && out[n-1].Iteration == pt.Iteration {
			out[n-1].Branches = best
			continue
		}
		out = append(out, CurvePoint{Iteration: pt.Iteration, Branches: best})
	}
	return out
}
