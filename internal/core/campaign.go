package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bugs"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
	"repro/internal/runtime"
	"repro/internal/vcache"
	"repro/internal/verifier"
)

// ProgramSource is any program generator the campaign can drive: BVF's
// structured generator or one of the baselines.
type ProgramSource interface {
	// Name identifies the tool for reports.
	Name() string
	// Generate synthesizes one program against the given resource pool.
	Generate(r *rand.Rand, pool []MapHandle) *isa.Program
}

// bvfSource adapts Generator to ProgramSource.
type bvfSource struct {
	name string
	cfg  GenConfig
}

func (b *bvfSource) Name() string { return b.name }

func (b *bvfSource) Generate(r *rand.Rand, pool []MapHandle) *isa.Program {
	cfg := b.cfg
	cfg.Maps = pool
	g := NewGenerator(cfg)
	return g.Generate(r)
}

// BVFSource returns the structured-generation program source.
func BVFSource(kfuncs bool) ProgramSource {
	return &bvfSource{name: "BVF", cfg: GenConfig{Kfuncs: kfuncs}}
}

// BVFVariant returns a named BVF source with a custom generator
// configuration, used by the ablation experiments.
func BVFVariant(name string, cfg GenConfig) ProgramSource {
	return &bvfSource{name: name, cfg: cfg}
}

// CampaignConfig parameterizes one fuzzing campaign.
type CampaignConfig struct {
	Source  ProgramSource
	Version kernel.Version
	// Sanitize enables the BVF kernel patches; baselines run without
	// them, exactly as in the paper's comparison.
	Sanitize bool
	// OverrideBugs replaces the version's default bug knobs when
	// non-nil (e.g. bugs.None() for a fully fixed kernel).
	OverrideBugs bugs.Set
	Seed         int64
	// MutateBias is the per-iteration probability (0-256) of mutating a
	// corpus program instead of generating afresh, once coverage
	// feedback has populated the corpus. Negative disables mutation
	// (random-bytes fuzzers have no validity-preserving mutators).
	MutateBias int
	// MutateBatch is the sibling-batch size of the mutation scheduler:
	// every corpus-parent pick emits this many mutant siblings on
	// consecutive iterations before the next pick/generate decision.
	// Consecutive siblings are small edits of one parent, so a mutant
	// that lands back on an already-verified program meets its verdict
	// while it is still in the cache. 0 selects the default (16, the
	// knee of the measured hit-rate/throughput curve — see
	// EXPERIMENTS.md); 1 (or negative) restores classic
	// one-mutant-per-pick scheduling.
	MutateBatch int
	// Deprecated: NoMinimize is ignored. The triage gauntlet is the only
	// minimizer.
	NoMinimize bool
	// Oracle enables the differential abstract-state soundness checker on
	// every kernel the campaign builds (kernel.Config.Oracle): clean runs
	// are replayed once under the per-instruction hook and violations
	// surface as kernel.IndicatorSoundness findings. Off by default; the
	// golden determinism fingerprint is defined with the oracle off.
	Oracle bool
	// Cache, when non-nil, memoizes verifier verdicts across iterations
	// (and kernel recycles — see internal/vcache), usually a
	// *vcache.Store. Stats gains Cache* counters when set.
	Cache verifier.Cache
	// Supervision configures panic containment and the wall-clock
	// watchdogs. The zero value leaves every mechanism off.
	Supervision SupervisorConfig
}

// Campaign drives one tool against one kernel version.
type Campaign struct {
	cfg    CampaignConfig
	src    *countedSource
	r      *rand.Rand
	stats  *Stats
	corpus *Corpus
	// novel accumulates coverage-novel corpus additions since the last
	// DrainNovel call, for cross-shard exchange in ParallelCampaign.
	novel []NovelProgram
	// lastProg is the program of the in-flight iteration, attached to a
	// HarnessCrash when panic containment fires mid-iteration.
	lastProg *isa.Program
	// batchProg/batchLeft are the in-flight sibling batch: the pinned
	// corpus parent and how many more siblings it still owes. Both
	// survive Run boundaries and are checkpointed (CampaignState), so a
	// resumed campaign finishes the batch exactly where it stopped.
	batchProg *isa.Program
	batchLeft int

	// cacheNanos accumulates the verifier's self-reported cache-layer
	// wall clock (verifier.Config.CacheNanos); iteration() books per-call
	// deltas as the "cache" stage instead of "verify".
	cacheNanos int64

	k    *kernel.Kernel
	pool []MapHandle
}

// NovelProgram is one coverage-novel corpus entry, as exchanged between
// the shards of a ParallelCampaign.
type NovelProgram struct {
	Prog    *isa.Program
	Novelty int // fresh coverage sites the program contributed locally
}

// Fixed campaign cadences.
const (
	// recycleEvery rebuilds the kernel (fresh memory domain) after this
	// many iterations, like a fuzzer rebooting its VM.
	recycleEvery = 512
	// curveSamples is how many coverage curve points one Run records.
	curveSamples = 48
	// runsPerProgram executes each accepted program this many times.
	runsPerProgram = 2
)

// NewCampaign builds a campaign.
func NewCampaign(cfg CampaignConfig) *Campaign {
	if cfg.MutateBias == 0 {
		cfg.MutateBias = 96
	}
	if cfg.MutateBatch == 0 {
		cfg.MutateBatch = 16
	}
	cfg.Supervision = cfg.Supervision.withDefaults()
	src := newCountedSource(cfg.Seed)
	return &Campaign{
		cfg:    cfg,
		src:    src,
		r:      rand.New(src),
		corpus: NewCorpus(256),
		stats:  NewStats(cfg.Source.Name(), cfg.Version),
	}
}

// PoolSpecs returns the standard resource-pool map specifications, so
// harnesses outside the campaign can reproduce its environment.
func PoolSpecs() []maps.Spec {
	return append([]maps.Spec(nil), poolSpecs...)
}

// poolSpecs is the standard resource pool created in each kernel.
var poolSpecs = []maps.Spec{
	{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 4, Name: "arr64"},
	{Type: maps.Array, KeySize: 4, ValueSize: 16, MaxEntries: 8, Name: "arr16"},
	{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 16, Name: "hash48"},
	{Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8, Name: "hash8"},
	{Type: maps.PerCPUArray, KeySize: 4, ValueSize: 32, MaxEntries: 4, Name: "pcpu"},
	{Type: maps.Queue, ValueSize: 16, MaxEntries: 8, Name: "queue"},
	{Type: maps.Stack, ValueSize: 16, MaxEntries: 8, Name: "stack"},
	{Type: maps.RingBuf, MaxEntries: 256, Name: "rb"},
	{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 4, Name: "jmp_table"},
	{Type: maps.LRUHash, KeySize: 4, ValueSize: 16, MaxEntries: 4, Name: "lru"},
}

// recycle builds a fresh kernel and resource pool. Existing coverage and
// corpus persist; map fds are stable because the pool is created in a
// fixed order.
func (c *Campaign) recycle() error {
	if err := faultinject.FireErr("core.recycle"); err != nil {
		return fmt.Errorf("campaign: recycle: %w", err)
	}
	c.k = kernel.New(kernel.Config{
		Version:       c.cfg.Version,
		Bugs:          c.cfg.OverrideBugs,
		Sanitize:      c.cfg.Sanitize,
		Cov:           c.stats.Coverage,
		VerifyTimeout: c.cfg.Supervision.verifyTimeout(),
		ExecTimeout:   c.cfg.Supervision.execTimeout(),
		Oracle:        c.cfg.Oracle,
		Cache:         c.cfg.Cache,
		CacheNanos:    &c.cacheNanos,
	})
	var err error
	if c.pool, err = installPool(c.k, c.pool[:0]); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// installPool creates the standard resource pool in k, in poolSpecs
// order so map fds are the same in every kernel, and installs a trivial
// tail-call target in every prog array so generated tail calls have
// somewhere to land. The handles are appended to pool; callers pass
// pool[:0] to reuse its backing array.
func installPool(k *kernel.Kernel, pool []MapHandle) ([]MapHandle, error) {
	for _, spec := range poolSpecs {
		fd, err := k.CreateMap(spec)
		if err != nil {
			return pool, fmt.Errorf("pool map %s: %w", spec.Name, err)
		}
		pool = append(pool, MapHandle{FD: fd, Spec: spec})
	}
	target := &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "tail_target",
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 1), isa.Exit()},
	}
	if lp, err := k.LoadProgram(target); err == nil {
		for _, h := range pool {
			if h.Spec.Type == maps.ProgArray {
				_ = k.SetProgArraySlot(h.FD, 0, lp.FD)
			}
		}
	}
	return pool, nil
}

// Stats returns the campaign's (live) statistics.
func (c *Campaign) Stats() *Stats { return c.stats }

// MutateBatch returns the resolved sibling-batch size the mutation
// scheduler runs with (the configured value after defaulting).
func (c *Campaign) MutateBatch() int { return c.cfg.MutateBatch }

// SeedCorpus injects a program into the campaign's corpus with the given
// novelty weight, without recording it as locally novel. ParallelCampaign
// uses it to share coverage-novel programs between shards (a shared entry
// must not be re-broadcast by the receiver, or it would ping-pong).
func (c *Campaign) SeedCorpus(p *isa.Program, novelty int) {
	if p == nil {
		return
	}
	c.corpus.Add(p, novelty)
}

// DrainNovel returns the coverage-novel corpus entries added since the
// previous call and clears the pending list.
func (c *Campaign) DrainNovel() []NovelProgram {
	out := c.novel
	c.novel = nil
	return out
}

// addNovel stores a coverage-novel program in the corpus and queues it for
// cross-shard exchange.
func (c *Campaign) addNovel(p *isa.Program, novelty int) {
	c.corpus.Add(p, novelty)
	c.novel = append(c.novel, NovelProgram{Prog: p.Clone(), Novelty: novelty})
}

// Run executes iters fuzzing iterations and returns the statistics. Run
// may be called repeatedly on the same campaign; iteration accounting
// (BugRecord.FoundAt, CurvePoint.Iteration, the recycle cadence) continues
// from where the previous call stopped rather than restarting at zero.
//
// Stats.Iterations advances as each iteration completes, so a Run cut
// short by an error or a panic counts every finished iteration once.
func (c *Campaign) Run(iters int) (*Stats, error) {
	sampleEvery := iters / curveSamples
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	cacheStart, hasCache := c.cacheCounters()
	for i := 0; i < iters; i++ {
		gi := c.stats.Iterations
		if c.k == nil || gi%recycleEvery == 0 {
			if err := c.recycle(); err != nil {
				return nil, err
			}
		}
		c.runIteration(gi)
		c.stats.Iterations++
		if i%sampleEvery == 0 || i == iters-1 {
			c.stats.Curve = append(c.stats.Curve, CurvePoint{
				Iteration: gi + 1, Branches: c.stats.Coverage.Count(),
			})
		}
	}
	c.stats.CorpusSize = c.corpus.Len()
	if hasCache {
		// Fold only this Run call's delta in: checkpoint-restored Stats
		// already carry the counters of previous runs.
		end, _ := c.cacheCounters()
		c.stats.CacheHits += end.Hits - cacheStart.Hits
		c.stats.CacheMisses += end.Misses - cacheStart.Misses
	}
	return c.stats, nil
}

// cacheCounters snapshots the configured cache's effectiveness counters
// (vcache.Store satisfies the interface); Run pulls start/end deltas so
// repeated Run calls and resumed campaigns accumulate correctly.
func (c *Campaign) cacheCounters() (vcache.Counters, bool) {
	cc, ok := c.cfg.Cache.(interface{ CounterSnapshot() vcache.Counters })
	if !ok {
		return vcache.Counters{}, false
	}
	return cc.CounterSnapshot(), true
}

// runIteration executes one fuzzing iteration, containing panics when
// supervised: a panicking iteration is recorded as a HarnessCrash finding
// (a harness crash is an oracle signal, not a reason to abort a multi-day
// campaign) and the kernel is dropped so the next iteration rebuilds it —
// a panic may have left it mid-mutation.
func (c *Campaign) runIteration(gi int) {
	if !c.cfg.Supervision.Enabled {
		c.iteration(gi)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			c.recordCrash(r, gi, c.lastProg)
		}
	}()
	c.iteration(gi)
}

// recordCrash books a contained panic as a HarnessCrash at iteration gi
// and drops the kernel, which the panic may have left mid-mutation; the
// next iteration rebuilds it.
func (c *Campaign) recordCrash(r any, gi int, prog *isa.Program) {
	c.stats.CrashCount++
	if len(c.stats.HarnessCrashes) < maxHarnessCrashSamples {
		c.stats.HarnessCrashes = append(c.stats.HarnessCrashes, recoverCrash(r, gi, prog))
	}
	c.k = nil
}

// addStage accumulates one pipeline stage's wall-clock time into
// Stats.StageNanos.
func (c *Campaign) addStage(stage string, d time.Duration) {
	if c.stats.StageNanos == nil {
		c.stats.StageNanos = make(map[string]int64)
	}
	c.stats.StageNanos[stage] += int64(d)
}

// isVerifierTimeout reports whether err or an error it wraps is the
// verify watchdog's TimeoutError. It walks the chain with type
// assertions, as kernel.Classify does, because an errors.As target
// would move to the heap on every call.
func isVerifierTimeout(err error) bool {
	for ; err != nil; err = errors.Unwrap(err) {
		if _, ok := err.(*verifier.TimeoutError); ok {
			return true
		}
	}
	return false
}

// isExecWatchdog is the execution-side twin of isVerifierTimeout.
func isExecWatchdog(err error) bool {
	for ; err != nil; err = errors.Unwrap(err) {
		if _, ok := err.(*runtime.WatchdogError); ok {
			return true
		}
	}
	return false
}

func (c *Campaign) iteration(i int) {
	faultinject.Fire("core.iteration")
	c.lastProg = nil
	tGen := time.Now()
	var prog *isa.Program
	switch {
	case c.batchLeft > 0 && c.batchProg != nil:
		// Mid-batch: emit the next sibling of the pinned parent without
		// drawing the bias gate or re-picking — consecutive siblings are
		// the whole point of the scheduling.
		prog = Mutate(c.r, c.batchProg)
		c.stats.MutateSiblings++
		c.batchLeft--
		if c.batchLeft == 0 {
			c.batchProg = nil
			c.corpus.Unpin()
		}
	case c.cfg.MutateBias > 0 && c.corpus.Len() > 0 && c.r.Intn(256) < c.cfg.MutateBias:
		var parent *isa.Program
		if c.cfg.MutateBatch > 1 {
			parent = c.corpus.PickPinned(c.r)
			c.batchProg = parent
			c.batchLeft = c.cfg.MutateBatch - 1
		} else {
			parent = c.corpus.Pick(c.r)
		}
		c.stats.MutateBatches++
		c.stats.MutateSiblings++
		prog = Mutate(c.r, parent)
	default:
		prog = c.cfg.Source.Generate(c.r, c.pool)
	}
	c.lastProg = prog
	c.countInsnMix(prog)
	tVerify := time.Now()
	c.addStage("gen", tVerify.Sub(tGen))

	covBefore := c.stats.Coverage.Count()
	cacheBefore := c.cacheNanos
	lp, err := c.k.LoadProgram(prog)
	newCov := c.stats.Coverage.Count() - covBefore
	// The verifier self-reports its cache-layer wall clock; book it as
	// the "cache" stage so "verify" is actual verification work.
	if d := c.cacheNanos - cacheBefore; d > 0 {
		c.addStage("cache", time.Duration(d))
		c.addStage("verify", time.Since(tVerify)-time.Duration(d))
	} else {
		c.addStage("verify", time.Since(tVerify))
	}
	if lp != nil && lp.Res != nil && lp.Res.PeakStates > c.stats.PeakWorklist {
		c.stats.PeakWorklist = lp.Res.PeakStates
	}

	if err != nil {
		if isVerifierTimeout(err) {
			// The watchdog aborted a worklist explosion: a harness
			// resource limit, not a verifier verdict. Count and keep
			// the program for triage instead of skewing ErrnoHist.
			c.recordWatchdog("verify", i, prog)
			return
		}
		c.recordReject(err)
		// A rejected program can still be an anomaly (Bug #8's
		// syscall warning).
		if a := kernel.Classify(err); a != nil {
			c.recordAnomaly(i, a, prog)
		}
		if newCov > 0 {
			c.addNovel(prog, newCov)
		}
		return
	}
	c.stats.Accepted++
	if newCov > 0 {
		c.addNovel(prog, newCov)
	}

	// recordAnomaly self-times into the "triage" stage, so the exec stage
	// is the wall clock over the run loop minus whatever triage accrued
	// inside it.
	tExec := time.Now()
	triBefore := c.stats.StageNanos["triage"]
	oChecks, oViols, oNanos := c.k.OracleChecks, c.k.OracleViolations, c.k.OracleNanos
	for run := 0; run < runsPerProgram; run++ {
		out := c.k.Run(lp)
		if isExecWatchdog(out.Err) {
			c.recordWatchdog("exec", i, prog)
			break
		}
		if a := kernel.Classify(out.Err); a != nil {
			c.recordAnomaly(i, a, prog)
			break
		}
	}
	c.postRunSyscalls(i, lp, prog)
	triDelta := c.stats.StageNanos["triage"] - triBefore
	// Oracle replays run inside kernel.Run; their wall clock is booked as
	// a stage of its own so "exec" keeps measuring the primary runs.
	oDelta := c.k.OracleNanos - oNanos
	c.stats.SoundnessChecks += c.k.OracleChecks - oChecks
	c.stats.SoundnessViolations += c.k.OracleViolations - oViols
	if oDelta > 0 {
		c.addStage("oracle", time.Duration(oDelta))
	}
	c.addStage("exec", time.Since(tExec)-time.Duration(triDelta)-time.Duration(oDelta))
}

// recordWatchdog counts a wall-clock watchdog trip and keeps the program
// for triage.
func (c *Campaign) recordWatchdog(stage string, i int, prog *isa.Program) {
	c.stats.WatchdogTrips[stage]++
	if len(c.stats.TimeoutSamples) < maxTimeoutSamples {
		c.stats.TimeoutSamples = append(c.stats.TimeoutSamples, TimeoutRecord{
			Stage: stage, FoundAt: i, Program: prog,
		})
	}
}

// postRunSyscalls exercises the surrounding syscall surface the way a
// syzkaller-derived fuzzer does: map dumps, dispatcher updates and
// offloaded attachment. The related-component bugs (#7, #9, #11) surface
// here.
func (c *Campaign) postRunSyscalls(i int, lp *kernel.LoadedProg, prog *isa.Program) {
	if c.r.Intn(256) < 48 {
		h := c.pool[c.r.Intn(len(c.pool))]
		if h.Spec.Type == maps.Hash || h.Spec.Type == maps.Array {
			if _, err := c.k.DumpMap(h.FD); err != nil {
				if a := kernel.Classify(err); a != nil {
					c.recordAnomaly(i, a, nil)
				}
			}
		}
	}
	if prog.Type == isa.ProgTypeXDP {
		if c.r.Intn(256) < 48 {
			c.k.UpdateDispatcher(lp)
			out := c.k.RunDispatcher()
			if a := kernel.Classify(out.Err); a != nil {
				c.recordAnomaly(i, a, prog)
			}
		}
		if c.r.Intn(256) < 32 {
			lp.Offloaded = true
			out := c.k.Run(lp)
			lp.Offloaded = false
			if a := kernel.Classify(out.Err); a != nil {
				c.recordAnomaly(i, a, prog)
			}
		}
	}
}

func (c *Campaign) recordReject(err error) {
	defer func(t0 time.Time) { c.addStage("triage", time.Since(t0)) }(time.Now())
	errno, word := rejectInfo(err)
	c.stats.ErrnoHist[errno]++
	if word != "" {
		c.stats.RejectReasons[word]++
	}
}

func (c *Campaign) recordAnomaly(i int, a *kernel.Anomaly, prog *isa.Program) {
	defer func(t0 time.Time) { c.addStage("triage", time.Since(t0)) }(time.Now())
	id := c.k.Triage(a, prog)
	if id == 0 {
		c.stats.OtherAnomalies[a.Kind]++
		if len(c.stats.UnattributedSamples) < maxUnattributedSamples {
			c.stats.UnattributedSamples = append(c.stats.UnattributedSamples, BugRecord{
				Kind: a.Kind, Indicator: a.Indicator, FoundAt: i,
				Err: a.Err.Error(), Program: prog,
			})
		}
		return
	}
	key := BugKey{ID: id, Indicator: a.Indicator, Kind: a.Kind}
	if _, seen := c.stats.Bugs[key]; seen {
		return
	}
	c.stats.Bugs[key] = &BugRecord{
		ID: id, Kind: a.Kind, Indicator: a.Indicator,
		FoundAt: i, Err: a.Err.Error(), Program: prog,
	}
}

func (c *Campaign) countInsnMix(p *isa.Program) {
	// Tally into a class-indexed array first: two string-map operations
	// per instruction made this accounting visible in profiles.
	var counts [8]int
	for _, ins := range p.Insns {
		counts[ins.Class()&0x07]++
	}
	for cl, n := range counts {
		if n != 0 {
			c.stats.InsnClassMix[isa.ClassName(uint8(cl))] += n
		}
	}
}
