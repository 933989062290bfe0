package core

import (
	"fmt"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// countedSource wraps math/rand's default source and counts state draws,
// so RNG state can be checkpointed as (seed, draws) and restored by
// replaying draws. In the Go runtime's generator both Int63 and Uint64
// consume exactly one state step, so replaying with either call restores
// the exact stream; the wrapper passes calls straight through, keeping
// every campaign's random trajectory bit-identical to an unwrapped
// rand.NewSource(seed).
type countedSource struct {
	seed  int64
	src   rand.Source64
	draws uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.seed, c.draws = seed, 0
	c.src.Seed(seed)
}

// fastForward replays n state draws, leaving the source exactly where a
// run that had drawn n values would be.
func (c *countedSource) fastForward(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws = n
}

// CampaignState is one shard's serialized state: enough to rebuild the
// campaign mid-run with an identical random trajectory, statistics,
// and corpus. The kernel is deliberately absent — checkpoints are taken
// at round barriers aligned with the recycle cadence, where a fresh
// kernel is built anyway.
type CampaignState struct {
	// Seed is the shard's current RNG seed (differs from the campaign
	// base seed after a supervised restart).
	Seed int64
	// Draws is how many RNG state steps the shard has consumed.
	Draws  uint64
	Stats  *Stats
	Corpus []CorpusEntry
	// Novel is the pending cross-shard exchange queue.
	Novel []NovelProgram
	// BatchParent/BatchLeft capture an in-flight sibling batch of the
	// mutation scheduler: the parent program and how many siblings it
	// still owes, so a resumed shard finishes the batch identically.
	// BatchPinned is the parent's pinned corpus index plus one (0 = no
	// pin), keeping pre-batching checkpoints — where gob leaves the
	// field zero — decoding as "nothing pinned".
	BatchParent *isa.Program
	BatchLeft   int
	BatchPinned int
}

// Snapshot is the serialized state of a ParallelCampaign, written at
// coordinator round barriers (where no shard is running, so a plain
// single-threaded walk of the state is consistent).
type Snapshot struct {
	Tool    string
	Version kernel.Version
	Seed    int64
	Workers int
	// Round is the number of completed coordinator rounds.
	Round    int
	Restarts []int
	Dead     []bool
	// CrashCount and Crashes are the coordinator-level (shard supervisor)
	// crash records; per-iteration crashes live in each shard's Stats.
	CrashCount int
	Crashes    []HarnessCrash
	Shards     []*CampaignState
	// Global is the merged cross-shard coverage map.
	Global *coverage.Map
	// Curve is the exact global coverage curve recorded at barriers.
	Curve []CurvePoint
}

// TotalDone returns the number of fuzzing iterations the snapshotted
// campaign had completed, summed across shards. Resuming callers run
// `target - TotalDone()` more iterations to reach their original target.
func (s *Snapshot) TotalDone() int {
	n := 0
	for _, sh := range s.Shards {
		if sh != nil && sh.Stats != nil {
			n += sh.Stats.Iterations
		}
	}
	return n
}

// Normalize re-initializes the map fields gob omits when empty, so a
// restored Stats is indistinguishable from a NewStats-built one. Every
// consumer of gob-decoded statistics (checkpoint resume, the
// orchestrator's result ingest) must call it before merging.
func (s *Stats) Normalize() { s.normalize() }

// normalize re-initializes the map fields gob omits when empty, so a
// restored Stats is indistinguishable from a NewStats-built one.
func (s *Stats) normalize() {
	if s.ErrnoHist == nil {
		s.ErrnoHist = make(map[int]int)
	}
	if s.RejectReasons == nil {
		s.RejectReasons = make(map[string]int)
	}
	if s.OtherAnomalies == nil {
		s.OtherAnomalies = make(map[string]int)
	}
	if s.InsnClassMix == nil {
		s.InsnClassMix = make(map[string]int)
	}
	if s.WatchdogTrips == nil {
		s.WatchdogTrips = make(map[string]int)
	}
	if s.Bugs == nil {
		s.Bugs = make(map[BugKey]*BugRecord)
	}
	if s.Coverage == nil {
		s.Coverage = coverage.NewMap()
	}
}

// exportState snapshots the campaign's resumable state. Call only
// between Run calls (at a round barrier for parallel shards).
func (c *Campaign) exportState() *CampaignState {
	return &CampaignState{
		Seed:        c.src.seed,
		Draws:       c.src.draws,
		Stats:       c.stats,
		Corpus:      c.corpus.Export(),
		Novel:       c.novel,
		BatchParent: c.batchProg,
		BatchLeft:   c.batchLeft,
		BatchPinned: c.corpus.pinned + 1,
	}
}

// restoreState rebuilds the campaign from a serialized state: the RNG is
// fast-forwarded to the recorded draw count, statistics and corpus are
// adopted, and the kernel is dropped so the next Run builds a fresh one.
func (c *Campaign) restoreState(st *CampaignState) {
	c.src = newCountedSource(st.Seed)
	c.src.fastForward(st.Draws)
	c.r = rand.New(c.src)
	c.cfg.Seed = st.Seed
	if st.Stats != nil {
		st.Stats.normalize()
		c.stats = st.Stats
	}
	c.corpus.Import(st.Corpus)
	c.novel = st.Novel
	// Re-arm the in-flight sibling batch (Import reset the pin).
	c.batchProg = st.BatchParent
	c.batchLeft = st.BatchLeft
	if c.batchProg == nil {
		c.batchLeft = 0
	}
	if pin := st.BatchPinned - 1; pin >= 0 && pin < c.corpus.Len() {
		c.corpus.pinned = pin
	}
	c.k = nil
	c.pool = nil
}

// snapshot captures the whole parallel campaign. Barrier-only.
func (p *ParallelCampaign) snapshot() *Snapshot {
	s := &Snapshot{
		Tool:       p.cfg.Source.Name(),
		Version:    p.cfg.Version,
		Seed:       p.cfg.Seed,
		Workers:    len(p.shards),
		Round:      p.round,
		Restarts:   append([]int(nil), p.restarts...),
		Dead:       append([]bool(nil), p.dead...),
		CrashCount: p.crashCount,
		Crashes:    append([]HarnessCrash(nil), p.crashes...),
		Global:     p.global,
		Curve:      append([]CurvePoint(nil), p.stats.Curve...),
	}
	for _, sh := range p.shards {
		s.Shards = append(s.Shards, sh.exportState())
	}
	return s
}

// Checkpoint atomically writes the campaign's resumable state to path.
// Run calls it at round barriers when CheckpointPath is configured; it
// may also be called manually between Run calls.
func (p *ParallelCampaign) Checkpoint(path string) error {
	return checkpoint.Save(path, p.snapshot())
}

// LoadSnapshot reads a snapshot written by Checkpoint. It returns
// checkpoint.ErrNoCheckpoint when path does not exist and
// checkpoint.ErrCorrupt (wrapped) on torn or damaged files.
func LoadSnapshot(path string) (*Snapshot, error) {
	var s Snapshot
	if err := checkpoint.Load(path, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Resume restores the campaign to a snapshotted state. The campaign must
// have been built with the same tool, version, seed, and worker count the
// snapshot records — resuming changes where the campaign is, not what it
// is. Call before Run.
func (p *ParallelCampaign) Resume(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("parallel campaign: resume: nil snapshot")
	}
	if got, want := len(p.shards), snap.Workers; got != want {
		return fmt.Errorf("parallel campaign: resume: campaign has %d workers, snapshot has %d", got, want)
	}
	if len(snap.Shards) != snap.Workers {
		return fmt.Errorf("parallel campaign: resume: snapshot has %d shard states for %d workers", len(snap.Shards), snap.Workers)
	}
	if got, want := p.cfg.Source.Name(), snap.Tool; got != want {
		return fmt.Errorf("parallel campaign: resume: campaign tool %q, snapshot tool %q", got, want)
	}
	if got, want := p.cfg.Version, snap.Version; got != want {
		return fmt.Errorf("parallel campaign: resume: campaign version %v, snapshot version %v", got, want)
	}
	if got, want := p.cfg.Seed, snap.Seed; got != want {
		return fmt.Errorf("parallel campaign: resume: campaign seed %d, snapshot seed %d", got, want)
	}
	for i, st := range snap.Shards {
		if st == nil {
			return fmt.Errorf("parallel campaign: resume: shard %d state missing", i)
		}
		p.shards[i].restoreState(st)
	}
	if snap.Global != nil {
		p.global = snap.Global
	} else {
		p.global = coverage.NewMap()
	}
	p.stats = NewStats(p.cfg.Source.Name(), p.cfg.Version)
	p.stats.Curve = append([]CurvePoint(nil), snap.Curve...)
	p.round = snap.Round
	if len(snap.Restarts) == len(p.restarts) {
		copy(p.restarts, snap.Restarts)
	}
	if len(snap.Dead) == len(p.dead) {
		copy(p.dead, snap.Dead)
	}
	p.crashCount = snap.CrashCount
	p.crashes = append([]HarnessCrash(nil), snap.Crashes...)
	return nil
}
