package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
	"repro/internal/oracle"
	"repro/internal/runtime"
	"repro/internal/sanitizer"
	"repro/internal/triage"
	"repro/internal/vcache"
	"repro/internal/verifier"
)

// The traced run replays a campaign's iteration loop from outside the
// campaign, calling each layer's public entry point in the order
// core.Campaign calls it and recording one span per call. The constants
// below are core.NewCampaign's and core.NewParallelCampaign's defaults and
// the limits the kernel applies internally; the mirror must use the same
// values to draw the same random stream and so load the same programs.
const (
	recycleEvery   = 512
	mutateBias     = 96
	mutateBatch    = 16
	runsPerProgram = 2
	corpusMax      = 256
	exchangeTop    = 8
	syncEvery      = 1024
	maxSamples     = 8 // core's cap on unattributed-anomaly samples
	sanMemoCap     = 4096
	kmallocMax     = 512 * isa.InsnSize
	watchdog       = 2 * time.Second
	minimizeRounds = 4
)

// mirrorConfig describes the campaign the traced run replays.
type mirrorConfig struct {
	version   kernel.Version
	sanitize  bool
	oracle    bool
	supervise bool // per-iteration panic containment and the watchdogs
	cache     bool // a vcache.Store behind the verifier
	shards    int  // >1 replays core.ParallelCampaign's rounds and exchange
	minimize  bool // deferred minimization after the last round
}

// layerCounts are the work counters the mirror reads off layer results
// where a span's single count is not enough.
type layerCounts struct {
	statesTotal, statesPeak int
	timeouts                int
	runFaults               int
	origSlots, outSlots     int
	violations              int
}

func (c *layerCounts) add(o layerCounts) {
	c.statesTotal += o.statesTotal
	c.statesPeak = max(c.statesPeak, o.statesPeak)
	c.timeouts += o.timeouts
	c.runFaults += o.runFaults
	c.origSlots += o.origSlots
	c.outSlots += o.outSlots
	c.violations += o.violations
}

// memoEntry mirrors the kernel's sanitizer memo, so the traced run
// instruments exactly the programs the untraced run instruments.
type memoEntry struct {
	canon []byte
	exec  *isa.Program
	stats *sanitizer.Stats
}

// shard replays one core.Campaign.
type shard struct {
	cfg    *mirrorConfig
	tr     *tracer
	r      *rand.Rand
	corpus *core.Corpus
	st     *core.Stats
	novel  []core.NovelProgram

	batchProg *isa.Program
	batchLeft int

	k     *kernel.Kernel
	pool  []core.MapHandle
	memo  map[uint64]memoEntry
	cache *timedCache
	cnt   layerCounts
}

func newShard(cfg *mirrorConfig, seed int64, tr *tracer, store *vcache.Store) *shard {
	s := &shard{
		cfg:    cfg,
		tr:     tr,
		r:      rand.New(rand.NewSource(seed)),
		corpus: core.NewCorpus(corpusMax),
		st:     core.NewStats("BVF", cfg.version),
	}
	if store != nil {
		s.cache = &timedCache{store: store, tr: tr, parent: -1}
	}
	return s
}

// run executes n iterations, continuing the iteration axis like
// core.Campaign.Run.
func (s *shard) run(n int) error {
	base := s.st.Iterations
	for i := 0; i < n; i++ {
		gi := base + i
		if s.k == nil || gi%recycleEvery == 0 {
			if err := s.recycle(gi); err != nil {
				return err
			}
		}
		s.runIteration(gi)
	}
	s.st.Iterations = base + n
	return nil
}

func (s *shard) begin(name string, parent int32, gi int) int32 {
	return s.tr.begin(name, parent, int64(gi))
}

// recycle builds a fresh kernel and the standard resource pool.
func (s *shard) recycle(gi int) error {
	id := s.begin("kernel.recycle", -1, gi)
	defer s.tr.end(id, 0)
	var limit time.Duration
	if s.cfg.supervise {
		limit = watchdog
	}
	kc := kernel.Config{
		Version: s.cfg.version, Sanitize: s.cfg.sanitize, Cov: s.st.Coverage,
		VerifyTimeout: limit, ExecTimeout: limit,
	}
	if s.cache != nil {
		// The tail-call target below is verified through the cache too.
		s.cache.parent, s.cache.trace = id, int64(gi)
		kc.Cache = s.cache
	}
	s.k = kernel.New(kc)
	s.memo = nil
	s.pool = s.pool[:0]
	for _, spec := range core.PoolSpecs() {
		fd, err := s.k.CreateMap(spec)
		if err != nil {
			return fmt.Errorf("mirror: pool map %s: %w", spec.Name, err)
		}
		s.pool = append(s.pool, core.MapHandle{FD: fd, Spec: spec})
	}
	target := &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "tail_target",
		Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 1), isa.Exit()},
	}
	if lp, err := s.k.LoadProgram(target); err == nil {
		for _, h := range s.pool {
			if h.Spec.Type == maps.ProgArray {
				_ = s.k.SetProgArraySlot(h.FD, 0, lp.FD)
			}
		}
	}
	return nil
}

// runIteration contains a panicking iteration the way a supervised
// campaign does: it is counted and the kernel is rebuilt.
func (s *shard) runIteration(gi int) {
	if !s.cfg.supervise {
		s.iteration(gi)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.st.CrashCount++
			s.k = nil
		}
	}()
	s.iteration(gi)
}

func (s *shard) iteration(gi int) {
	root := s.begin("iteration", -1, gi)
	defer s.tr.end(root, 0)

	var prog *isa.Program
	switch {
	case s.batchLeft > 0 && s.batchProg != nil:
		id := s.begin("core.mutate", root, gi)
		prog = core.Mutate(s.r, s.batchProg)
		s.tr.end(id, 0)
		s.st.MutateSiblings++
		s.batchLeft--
		if s.batchLeft == 0 {
			s.batchProg = nil
			s.corpus.Unpin()
		}
	case s.corpus.Len() > 0 && s.r.Intn(256) < mutateBias:
		parent := s.corpus.PickPinned(s.r)
		s.batchProg, s.batchLeft = parent, mutateBatch-1
		s.st.MutateBatches++
		s.st.MutateSiblings++
		id := s.begin("core.mutate", root, gi)
		prog = core.Mutate(s.r, parent)
		s.tr.end(id, 0)
	default:
		id := s.begin("core.gen", root, gi)
		g := core.NewGenerator(core.GenConfig{Kfuncs: s.cfg.version.HasKfuncs(), Maps: s.pool})
		prog = g.Generate(s.r)
		s.tr.end(id, 0)
	}

	covBefore := s.st.Coverage.Count()
	lp, err := s.load(prog, root, gi)
	newCov := s.st.Coverage.Count() - covBefore
	if err != nil {
		var te *verifier.TimeoutError
		if errors.As(err, &te) {
			s.cnt.timeouts++
			s.st.WatchdogTrips["verify"]++
			return
		}
		if a := kernel.Classify(err); a != nil {
			s.recordAnomaly(gi, a, prog, root)
		}
		if newCov > 0 {
			s.addNovel(prog, newCov)
		}
		return
	}
	s.st.Accepted++
	if newCov > 0 {
		s.addNovel(prog, newCov)
	}
	for run := 0; run < runsPerProgram; run++ {
		out := s.exec(lp, root, gi)
		var we *runtime.WatchdogError
		if errors.As(out.Err, &we) {
			s.st.WatchdogTrips["exec"]++
			break
		}
		if a := kernel.Classify(out.Err); a != nil {
			s.recordAnomaly(gi, a, prog, root)
			break
		}
	}
	s.postRunSyscalls(gi, lp, prog, root)
}

// load is kernel.LoadProgram split into its layers: verification, then
// sanitation behind the kernel's memo, then the kmemdup size check.
func (s *shard) load(p *isa.Program, root int32, gi int) (*kernel.LoadedProg, error) {
	cfg := s.k.VerifierConfig()
	// The mirror's kernel runs with the oracle off so kernel.Run does not
	// replay; the claims the replay needs are recorded here instead.
	cfg.RecordStates = s.cfg.oracle
	id := s.begin("verifier", root, gi)
	if s.cache != nil {
		s.cache.parent, s.cache.trace = id, int64(gi)
	}
	res, err := verifier.Verify(p, cfg)
	var insns int64
	if err == nil {
		insns = int64(res.InsnProcessed)
	}
	s.tr.end(id, insns)
	if err != nil {
		return nil, err
	}
	s.cnt.statesTotal += res.TotalStates
	s.cnt.statesPeak = max(s.cnt.statesPeak, res.PeakStates)

	lp := &kernel.LoadedProg{Orig: p, Verified: res.Prog, Exec: res.Prog, Res: res}
	if s.cfg.sanitize {
		if e, ok := s.memoLookup(res); ok {
			lp.Exec, lp.SanStats = e.exec, e.stats
		} else {
			id := s.begin("sanitizer", root, gi)
			san, stats, serr := sanitizer.Instrument(res.Prog, res.RangeChecks)
			s.tr.end(id, 0)
			if serr != nil {
				return nil, serr
			}
			lp.Exec, lp.SanStats = san, stats
			s.cnt.origSlots += stats.OrigSlots
			s.cnt.outSlots += stats.OutSlots
			s.memoStore(res, san, stats)
		}
	}
	if s.k.Cfg.Bugs.Has(bugs.Bug8Kmemdup) && lp.Exec.Slots()*isa.InsnSize > kmallocMax {
		return nil, &kernel.SyscallBugError{Size: lp.Exec.Slots() * isa.InsnSize}
	}
	return lp, nil
}

func (s *shard) memoLookup(res *verifier.Result) (memoEntry, bool) {
	if res.CacheCanon == nil {
		return memoEntry{}, false
	}
	e, ok := s.memo[res.CacheFP]
	if !ok || string(e.canon) != string(res.CacheCanon) {
		return memoEntry{}, false
	}
	return e, true
}

func (s *shard) memoStore(res *verifier.Result, exec *isa.Program, stats *sanitizer.Stats) {
	if res.CacheCanon == nil {
		return
	}
	if len(s.memo) >= sanMemoCap {
		s.memo = nil
	}
	if s.memo == nil {
		s.memo = make(map[uint64]memoEntry)
	}
	s.memo[res.CacheFP] = memoEntry{canon: res.CacheCanon, exec: exec, stats: stats}
}

// exec is kernel.Run: one run, then, with the oracle armed, one hooked
// replay of the verified program when the run was clean.
func (s *shard) exec(lp *kernel.LoadedProg, root int32, gi int) *runtime.ExecOutcome {
	id := s.begin("runtime", root, gi)
	out := s.k.Run(lp)
	s.tr.end(id, int64(out.Steps))
	if out.Err != nil {
		s.cnt.runFaults++
	}
	return s.replay(lp, out, root, gi)
}

func (s *shard) replay(lp *kernel.LoadedProg, out *runtime.ExecOutcome, root int32, gi int) *runtime.ExecOutcome {
	if !s.cfg.oracle || out.Err != nil || lp.Res == nil || lp.Res.States == nil {
		return out
	}
	id := s.begin("oracle", root, gi)
	s.k.M.Lockdep.Reset()
	x := runtime.NewExec(s.k.M, lp.Verified)
	if s.k.Cfg.ExecTimeout > 0 {
		x.SetWatchdog(s.k.Cfg.ExecTimeout)
	}
	ores := oracle.Run(x, lp.Res.States)
	s.tr.end(id, int64(ores.Checks))
	if ores.Violation == nil {
		return out
	}
	s.cnt.violations++
	return &runtime.ExecOutcome{R0: out.R0, Steps: out.Steps, Err: ores.Violation}
}

// postRunSyscalls mirrors the campaign's map dumps, dispatcher updates
// and offloaded attachment, drawing the same random numbers.
func (s *shard) postRunSyscalls(gi int, lp *kernel.LoadedProg, prog *isa.Program, root int32) {
	if s.r.Intn(256) < 48 {
		h := s.pool[s.r.Intn(len(s.pool))]
		if h.Spec.Type == maps.Hash || h.Spec.Type == maps.Array {
			id := s.begin("kernel.syscall", root, gi)
			_, err := s.k.DumpMap(h.FD)
			s.tr.end(id, 0)
			if a := kernel.Classify(err); a != nil {
				s.recordAnomaly(gi, a, nil, root)
			}
		}
	}
	if prog.Type != isa.ProgTypeXDP {
		return
	}
	if s.r.Intn(256) < 48 {
		id := s.begin("kernel.syscall", root, gi)
		s.k.UpdateDispatcher(lp)
		out := s.k.RunDispatcher()
		s.tr.end(id, 0)
		// RunDispatcher runs lp through kernel.Run, which replays it
		// under the oracle on an oracle kernel.
		out = s.replay(lp, out, root, gi)
		if a := kernel.Classify(out.Err); a != nil {
			s.recordAnomaly(gi, a, prog, root)
		}
	}
	if s.r.Intn(256) < 32 {
		lp.Offloaded = true
		out := s.exec(lp, root, gi)
		lp.Offloaded = false
		if a := kernel.Classify(out.Err); a != nil {
			s.recordAnomaly(gi, a, prog, root)
		}
	}
}

func (s *shard) recordAnomaly(gi int, a *kernel.Anomaly, prog *isa.Program, root int32) {
	id := s.begin("kernel.triage", root, gi)
	bug := s.k.Triage(a, prog)
	s.tr.end(id, 0)
	if bug == 0 {
		s.st.OtherAnomalies[a.Kind]++
		if len(s.st.UnattributedSamples) < maxSamples {
			s.st.UnattributedSamples = append(s.st.UnattributedSamples, core.BugRecord{
				Kind: a.Kind, Indicator: a.Indicator, FoundAt: gi, Err: a.Err.Error(), Program: prog,
			})
		}
		return
	}
	key := core.BugKey{ID: bug, Indicator: a.Indicator, Kind: a.Kind}
	if _, seen := s.st.Bugs[key]; seen {
		return
	}
	s.st.Bugs[key] = &core.BugRecord{
		ID: bug, Kind: a.Kind, Indicator: a.Indicator, FoundAt: gi, Err: a.Err.Error(), Program: prog,
	}
}

func (s *shard) addNovel(p *isa.Program, novelty int) {
	s.corpus.Add(p, novelty)
	s.novel = append(s.novel, core.NovelProgram{Prog: p.Clone(), Novelty: novelty})
}

// mirrorResult is one traced replay of a campaign.
type mirrorResult struct {
	stats   *core.Stats // merged like the campaign merges its shards
	spans   []span      // every shard's spans, parent indices rebased
	counts  layerCounts
	entries int   // cache entries at the end
	inBytes int64 // bytes inserted into the cache
	fuzz    time.Duration
}

// runMirror replays a campaign of total iterations at seed. With several
// shards it replays core.ParallelCampaign: shard i is seeded seed+i, runs
// rounds of syncEvery iterations concurrently with the others, and
// exchanges coverage-novel programs at each round barrier.
func runMirror(cfg mirrorConfig, seed int64, total int) (*mirrorResult, error) {
	start := time.Now()
	var store *vcache.Store
	if cfg.cache {
		store = vcache.NewStore(0)
	}
	shards := make([]*shard, cfg.shards)
	for i := range shards {
		shards[i] = newShard(&cfg, seed+int64(i), newTracer(start), store)
	}
	if cfg.shards == 1 {
		if err := shards[0].run(total); err != nil {
			return nil, err
		}
	} else if err := runRounds(shards, total); err != nil {
		return nil, err
	}

	merged := core.NewStats("BVF", cfg.version)
	for i, sh := range shards {
		t := *sh.st
		t.Bugs = make(map[core.BugKey]*core.BugRecord, len(sh.st.Bugs))
		for key, rec := range sh.st.Bugs {
			r := *rec
			r.FoundAt = rec.FoundAt*len(shards) + i
			t.Bugs[key] = &r
		}
		t.UnattributedSamples = nil
		for _, u := range sh.st.UnattributedSamples {
			u.FoundAt = u.FoundAt*len(shards) + i
			t.UnattributedSamples = append(t.UnattributedSamples, u)
		}
		merged.Merge(&t)
	}
	if cfg.minimize {
		tr := shards[0].tr
		for key, rec := range merged.Bugs {
			if rec.Program == nil {
				continue
			}
			id := tr.begin("core.minimize", -1, int64(rec.FoundAt))
			rep := core.NewReproducer(cfg.version, nil, cfg.sanitize, cfg.oracle, key.ID)
			if rep.Check(rec.Program) {
				rec.Minimized = core.Minimize(rep, rec.Program, minimizeRounds)
			}
			tr.end(id, 0)
		}
	}
	res := &mirrorResult{stats: merged, fuzz: time.Since(start)}
	// The gauntlet over the findings, as cmd/bvf runs it after fuzzing.
	tr := shards[0].tr
	id := tr.begin("triage.gauntlet", -1, -1)
	findings, err := triage.Open("")
	if err != nil {
		return nil, err
	}
	g := triage.New(triage.Config{}, findings)
	if _, err := g.Ingest(merged, triage.Env{Version: cfg.version, Sanitize: cfg.sanitize, Oracle: cfg.oracle}); err != nil {
		return nil, fmt.Errorf("mirror: triage ingest: %w", err)
	}
	sum, err := g.Run()
	if err != nil {
		return nil, fmt.Errorf("mirror: triage: %w", err)
	}
	tr.end(id, int64(sum.Total))
	for _, sh := range shards {
		res.spans = appendSpans(res.spans, sh.tr.snapshot())
		res.counts.add(sh.cnt)
	}
	if store != nil {
		res.entries = store.Len()
		res.inBytes = store.CounterSnapshot().InsertedBytes
	}
	return res, nil
}

// runRounds replays core.ParallelCampaign.Run's rounds and barriers.
func runRounds(shards []*shard, total int) error {
	quota := make([]int, len(shards))
	for i := range quota {
		quota[i] = total / len(shards)
		if i < total%len(shards) {
			quota[i]++
		}
	}
	global := coverage.NewMap()
	for {
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		ran := false
		for i, sh := range shards {
			n := min(quota[i], syncEvery)
			if n == 0 {
				continue
			}
			quota[i] -= n
			ran = true
			wg.Add(1)
			go func(i int, sh *shard, n int) {
				defer wg.Done()
				errs[i] = sh.run(n)
			}(i, sh, n)
		}
		if !ran {
			return nil
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		exchange(shards, global)
	}
}

// exchange is ParallelCampaign's barrier: merge every shard's coverage
// into the global map and hand each shard's most recent coverage-novel
// programs to the others, in shard order.
func exchange(shards []*shard, global *coverage.Map) {
	type donation struct {
		from    int
		entries []core.NovelProgram
	}
	var donations []donation
	for i, sh := range shards {
		novel := sh.novel
		sh.novel = nil
		if global.Merge(sh.st.Coverage) == 0 || len(novel) == 0 {
			continue
		}
		if len(novel) > exchangeTop {
			novel = novel[len(novel)-exchangeTop:]
		}
		donations = append(donations, donation{from: i, entries: novel})
	}
	for _, d := range donations {
		for j, sh := range shards {
			if j == d.from {
				continue
			}
			for _, e := range d.entries {
				sh.corpus.Add(e.Prog, e.Novelty)
			}
		}
	}
}

// timedCache is a verifier.Cache that times every call into the vcache
// layer as a child span of the verification that made it.
type timedCache struct {
	store  *vcache.Store
	tr     *tracer
	parent int32
	trace  int64
}

var _ verifier.Cache = (*timedCache)(nil)

func (c *timedCache) span(name string) int32 { return c.tr.begin(name, c.parent, c.trace) }

func hit(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

func (c *timedCache) Lookup(fp uint64, p *isa.Program) *verifier.CachedVerdict {
	id := c.span("vcache.lookup")
	v := c.store.Lookup(fp, p)
	c.tr.end(id, hit(v != nil))
	return v
}

func (c *timedCache) Insert(fp uint64, v *verifier.CachedVerdict) {
	id := c.span("vcache.insert")
	c.store.Insert(fp, v)
	c.tr.end(id, 0)
}

func (c *timedCache) LookupPrefix(fp uint64, canon []byte) *verifier.PrefixSnapshot {
	id := c.span("vcache.prefix")
	v := c.store.LookupPrefix(fp, canon)
	c.tr.end(id, hit(v != nil))
	return v
}

func (c *timedCache) InsertPrefix(fp uint64, snap *verifier.PrefixSnapshot) {
	id := c.span("vcache.insert_prefix")
	c.store.InsertPrefix(fp, snap)
	c.tr.end(id, 0)
}

func (c *timedCache) NotePrefix(fp uint64) bool {
	id := c.span("vcache.note_prefix")
	seen := c.store.NotePrefix(fp)
	c.tr.end(id, hit(seen))
	return seen
}
