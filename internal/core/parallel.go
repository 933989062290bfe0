package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coverage"
)

// ErrStopped is returned by ParallelCampaign.Run when Stop interrupted
// the campaign before its iteration quota was exhausted. The returned
// statistics are valid and complete up to the last finished round.
var ErrStopped = errors.New("parallel campaign: stopped")

// ParallelConfig parameterizes a sharded campaign. The embedded
// CampaignConfig describes each shard; shard i runs with Seed+i so the
// shards explore disjoint trajectories deterministically. Its Cache must
// stay nil with more than one worker: the shards would share one store,
// and each would count every shard's hits as its own.
type ParallelConfig struct {
	CampaignConfig
	// Workers is the number of shards; <=0 selects runtime.NumCPU().
	Workers int
	// SyncEvery is the number of shard-local iterations between
	// coordinator rounds (coverage merge + corpus exchange). Default
	// 1024. Syncs are barriers: determinism does not depend on the
	// goroutine schedule because shards only interact at round edges.
	SyncEvery int
	// Progress, when non-nil, receives a one-line progress report
	// (iters/sec, acceptance rate, coverage, bugs found, stage shares)
	// every reportEvery and once more when Run's last round ends.
	Progress io.Writer
	// CheckpointPath, when non-empty, makes Run write a crash-consistent
	// snapshot there every CheckpointEvery rounds and after the final
	// round, so an interrupted campaign can resume instead of restarting.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in coordinator rounds.
	// Default 8.
	CheckpointEvery int
}

// ParallelCampaign runs N worker shards, each an ordinary Campaign with
// its own kernel, RNG (seed+shardIndex), corpus, and coverage map. A
// coordinator periodically merges shard coverage into a global map —
// coverage.Map.Merge's fresh-site return is the cross-shard feedback
// signal — and redistributes coverage-novel corpus entries between
// shards, the scheme BVF's 40-core deployment and BRF's parallel
// fuzzing instances both use.
//
// Determinism: with a fixed Seed, Workers, SyncEvery and total iteration
// count, a run is fully reproducible. Shards never share mutable state
// while running; all cross-shard traffic happens single-threaded at the
// round barrier, in shard-index order.
type ParallelCampaign struct {
	cfg    ParallelConfig
	shards []*Campaign
	global *coverage.Map
	stats  *Stats

	// Supervision state, touched only at round barriers.
	restarts   []int  // shard restarts so far (circuit-breaker input)
	dead       []bool // shards retired by the circuit breaker
	crashCount int    // shard-level contained panics
	crashes    []HarnessCrash
	round      int // completed coordinator rounds (checkpoint cadence)

	// stopped requests a graceful stop; Run honours it at round edges.
	stopped atomic.Bool

	// live is what the progress reporter prints: the shard sums
	// published at the latest round barrier. Shards never write it.
	live atomic.Pointer[progress]
}

// progress is one published reporter view, summed over the shards.
type progress struct {
	iters, accepted, coverage, bugs int
	// stageNS is per-stage wall clock in stageNames order.
	stageNS [len(stageNames)]int64
}

// exchangeTop caps how many coverage-novel programs one shard broadcasts
// to the others per sync round.
const exchangeTop = 8

// reportEvery is the progress reporter's interval.
const reportEvery = 5 * time.Second

// stageNames fixes the reporter's stage order, one entry per stage a
// Campaign books into Stats.StageNanos.
var stageNames = [...]string{"gen", "verify", "cache", "exec", "oracle", "triage"}

// NewParallelCampaign builds a sharded campaign.
func NewParallelCampaign(cfg ParallelConfig) *ParallelCampaign {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 1024
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	cfg.Supervision = cfg.Supervision.withDefaults()
	p := &ParallelCampaign{
		cfg:      cfg,
		global:   coverage.NewMap(),
		stats:    NewStats(cfg.Source.Name(), cfg.Version),
		restarts: make([]int, cfg.Workers),
		dead:     make([]bool, cfg.Workers),
	}
	for i := 0; i < cfg.Workers; i++ {
		sc := cfg.CampaignConfig
		sc.Seed = cfg.Seed + int64(i)
		p.shards = append(p.shards, NewCampaign(sc))
	}
	return p
}

// Workers returns the shard count.
func (p *ParallelCampaign) Workers() int { return len(p.shards) }

// Stats returns the merged statistics. Only valid after Run returns; the
// per-shard statistics are folded in at the final barrier.
func (p *ParallelCampaign) Stats() *Stats { return p.stats }

// SplitQuota divides total iterations over shards: an even share each,
// with the remainder spread over the lowest shard indices. A distributed
// campaign splits its budget over work units the same way, which is what
// lets unit i reproduce shard i.
func SplitQuota(total, shards int) []int {
	quota := make([]int, shards)
	for i := range quota {
		quota[i] = total / shards
		if i < total%shards {
			quota[i]++
		}
	}
	return quota
}

// Stop requests a graceful stop: Run finishes the in-flight round,
// records the final barrier state (and checkpoint, when configured), and
// returns the merged statistics with ErrStopped. Safe to call from any
// goroutine, e.g. a signal handler.
func (p *ParallelCampaign) Stop() { p.stopped.Store(true) }

// shardOutcome is what one shard goroutine reports back at the barrier.
type shardOutcome struct {
	err   error
	crash *HarnessCrash
}

// Run executes total fuzzing iterations divided evenly across the shards
// and returns the merged statistics. Like Campaign.Run it may be called
// repeatedly; accounting continues on the global iteration axis.
//
// When supervision is enabled each shard goroutine runs under a
// supervisor: a shard that panics past the per-iteration containment is
// recorded as a HarnessCrash, its unfinished round quota is refunded
// (shard statistics only advance at round ends, so nothing is double
// counted), and the shard is rebuilt at once with a fresh kernel and a
// derived RNG seed; sleeping first would stall the healthy shards at the
// barrier too. A shard that keeps crashing trips the MaxRestarts circuit
// breaker: it is retired and its remaining quota is redistributed to the
// surviving shards.
//
// On error Run still merges every healthy shard's statistics and returns
// them alongside the error — hours of fuzzing results from the other
// shards must not vanish because one shard failed.
func (p *ParallelCampaign) Run(total int) (*Stats, error) {
	quota := SplitQuota(total, len(p.shards))
	// Quota assigned to already-retired shards (after a resume) moves to
	// the survivors immediately.
	for i := range p.shards {
		if p.dead[i] {
			p.redistribute(i, quota)
		}
	}

	stopReport := p.startReporter()
	defer stopReport()

	sup := p.cfg.Supervision
	var firstErr error
	for remaining(quota) && firstErr == nil && !p.stopped.Load() {
		outcomes := make([]shardOutcome, len(p.shards))
		ran := make([]int, len(p.shards))
		var wg sync.WaitGroup
		for i := range p.shards {
			if p.dead[i] {
				continue
			}
			n := quota[i]
			if n > p.cfg.SyncEvery {
				n = p.cfg.SyncEvery
			}
			if n == 0 {
				continue
			}
			quota[i] -= n
			ran[i] = n
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				if sup.Enabled {
					defer func() {
						if r := recover(); r != nil {
							crash := recoverCrash(r, p.shards[i].stats.Iterations, nil)
							crash.Shard = i
							outcomes[i].crash = &crash
						}
					}()
				}
				_, outcomes[i].err = p.shards[i].Run(n)
			}(i, n)
		}
		wg.Wait()

		for i := range outcomes {
			if crash := outcomes[i].crash; crash != nil {
				p.crashCount++
				if len(p.crashes) < maxHarnessCrashSamples {
					p.crashes = append(p.crashes, *crash)
				}
				// The crashed round never reached the shard's statistics
				// (Campaign.Run commits Iterations at completion), so the
				// whole chunk is refunded and re-run.
				quota[i] += ran[i]
				p.restarts[i]++
				if p.restarts[i] > sup.MaxRestarts {
					p.dead[i] = true
					p.redistribute(i, quota)
					continue
				}
				p.rebuildShard(i)
				continue
			}
			if err := outcomes[i].err; err != nil && firstErr == nil {
				firstErr = fmt.Errorf("parallel campaign: shard %d: %w", i, err)
			}
		}
		if p.allDead() {
			if firstErr == nil {
				firstErr = fmt.Errorf("parallel campaign: all %d shards retired after repeated crashes", len(p.shards))
			}
		}
		p.sync()
		p.round++
		if p.cfg.CheckpointPath != "" && firstErr == nil && p.round%p.cfg.CheckpointEvery == 0 {
			if err := p.Checkpoint(p.cfg.CheckpointPath); err != nil {
				firstErr = fmt.Errorf("parallel campaign: %w", err)
			}
		}
	}
	p.mergeStats()
	if p.cfg.CheckpointPath != "" && firstErr == nil {
		if err := p.Checkpoint(p.cfg.CheckpointPath); err != nil {
			firstErr = fmt.Errorf("parallel campaign: %w", err)
		}
	}
	if firstErr != nil {
		return p.stats, firstErr
	}
	if p.stopped.Load() && remaining(quota) {
		return p.stats, ErrStopped
	}
	return p.stats, nil
}

// rebuildShard replaces shard i's campaign after a contained crash. The
// shard keeps its identity — statistics (including the local iteration
// axis and coverage) and corpus carry over — while the kernel and the RNG
// trajectory are fresh: the kernel may have been left mid-mutation by the
// panic, and a derived seed keeps the rebuilt shard from deterministically
// replaying the crashing trajectory.
func (p *ParallelCampaign) rebuildShard(i int) {
	old := p.shards[i]
	sc := p.cfg.CampaignConfig
	sc.Seed = deriveSeed(p.cfg.Seed, i, p.restarts[i])
	nc := NewCampaign(sc)
	nc.stats = old.stats
	nc.stats.ShardRestarts++
	nc.corpus = old.corpus
	nc.novel = old.novel
	// The crashed shard's in-flight sibling batch dies with its RNG
	// trajectory; lift the parent pin so it does not outlive the batch.
	nc.corpus.Unpin()
	p.shards[i] = nc
}

// redistribute hands shard i's remaining quota to the surviving shards,
// round-robin. With no survivors the quota is dropped; Run then fails
// with an all-shards-retired error.
func (p *ParallelCampaign) redistribute(i int, quota []int) {
	n := quota[i]
	quota[i] = 0
	var live []int
	for j := range p.shards {
		if !p.dead[j] {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}
	for k := 0; n > 0; k++ {
		quota[live[k%len(live)]]++
		n--
	}
}

// allDead reports whether the circuit breaker has retired every shard.
func (p *ParallelCampaign) allDead() bool {
	for i := range p.shards {
		if !p.dead[i] {
			return false
		}
	}
	return true
}

// sync is the coordinator round, run single-threaded at the barrier: it
// merges every shard's coverage into the global map and rebroadcasts the
// globally-novel corpus entries to the other shards. It also empties each
// shard's coverage curve: mergeStats replaces shard curves with the
// barrier curve, so points kept past the barrier would only grow memory
// and every checkpoint with each round.
func (p *ParallelCampaign) sync() {
	type donation struct {
		from    int
		entries []NovelProgram
	}
	var donations []donation
	for i, sh := range p.shards {
		sh.stats.Curve = sh.stats.Curve[:0]
		novel := sh.DrainNovel()
		// The fresh-site count from merging this shard's coverage into
		// the global map is the cross-shard feedback signal: a shard
		// whose round contributed nothing globally new has nothing the
		// other shards have not already seen.
		fresh := p.global.Merge(sh.Stats().Coverage)
		if fresh == 0 || len(novel) == 0 {
			continue
		}
		if len(novel) > exchangeTop {
			// Keep the most recent entries: later additions subsume
			// earlier coverage within the round.
			novel = novel[len(novel)-exchangeTop:]
		}
		donations = append(donations, donation{from: i, entries: novel})
	}
	for _, d := range donations {
		for j, sh := range p.shards {
			if j == d.from {
				continue
			}
			for _, e := range d.entries {
				sh.SeedCorpus(e.Prog, e.Novelty)
			}
		}
	}
	p.recordRound()
}

// recordRound appends a global coverage-curve point and publishes the
// reporter's view. Runs at the barrier only.
func (p *ParallelCampaign) recordRound() {
	pr := p.publish()
	p.stats.Curve = append(p.stats.Curve, CurvePoint{
		Iteration: pr.iters, Branches: pr.coverage,
	})
}

// publish sums the shard statistics into a fresh reporter view and
// stores it. It reads shard state, so it runs only while no shard does:
// at a round barrier, or before Run starts the first round.
func (p *ParallelCampaign) publish() *progress {
	pr := &progress{coverage: p.global.Count()}
	nbugs := map[BugKey]bool{}
	for _, sh := range p.shards {
		st := sh.Stats()
		pr.iters += st.Iterations
		pr.accepted += st.Accepted
		for key := range st.Bugs {
			nbugs[key] = true
		}
		for i, name := range stageNames {
			pr.stageNS[i] += st.StageNanos[name]
		}
	}
	pr.bugs = len(nbugs)
	p.live.Store(pr)
	return pr
}

// mergeStats folds the shard statistics into p.stats with all
// iteration-indexed fields translated onto the global axis. The global
// coverage map (already the union of every shard round) becomes the
// merged Coverage; shard curves are dropped in favour of the exact
// global curve recorded at round barriers.
func (p *ParallelCampaign) mergeStats() {
	merged := NewStats(p.cfg.Source.Name(), p.cfg.Version)
	merged.Coverage = p.global
	merged.Curve = p.stats.Curve
	for i, sh := range p.shards {
		// The global map and the barrier curve stand for the shards'.
		st := *sh.Stats()
		st.Coverage, st.Curve = nil, nil
		merged.Merge(st.OnGlobalAxis(i, len(p.shards)))
	}
	// Shard-level crashes (caught by the goroutine supervisor rather than
	// the per-iteration containment) live on the coordinator, not in any
	// shard's statistics.
	merged.CrashCount += p.crashCount
	for _, h := range p.crashes {
		if len(merged.HarnessCrashes) >= maxHarnessCrashSamples {
			break
		}
		h.Iteration = globalIteration(h.Iteration, h.Shard, len(p.shards))
		merged.HarnessCrashes = append(merged.HarnessCrashes, h)
	}
	// Merge replayed the (empty) curve; restore the global one.
	merged.Curve = p.stats.Curve
	p.stats = merged
}

// startReporter launches the progress printer; the returned function
// prints a last line and stops it. The reporter reads only what round
// barriers published, so it never races a running shard. Its rate
// baseline is the published sum at start, so a resumed or repeated Run
// counts only its own iterations.
func (p *ParallelCampaign) startReporter() func() {
	if p.cfg.Progress == nil {
		return func() {}
	}
	base, start := p.publish().iters, time.Now()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(reportEvery)
		defer tick.Stop()
		last, lastAt := base, start
		for {
			select {
			case now := <-tick.C:
				last, lastAt = p.report(start, last, lastAt, now), now
			case <-done:
				// The last interval may be a sliver of a round, so the
				// last line's rate is the whole run's.
				p.report(start, base, start, time.Now())
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-exited
		})
	}
}

// report prints one progress line from the latest published view, its
// rate taken over the iterations past `from` since `fromAt`, and returns
// the iteration count it printed.
func (p *ParallelCampaign) report(start time.Time, from int, fromAt, now time.Time) int {
	pr := p.live.Load()
	rate := float64(pr.iters-from) / now.Sub(fromAt).Seconds()
	acc := 0.0
	if pr.iters > 0 {
		acc = float64(pr.accepted) / float64(pr.iters)
	}
	var totalNS int64
	for _, ns := range pr.stageNS {
		totalNS += ns
	}
	stages := ""
	if totalNS > 0 {
		for i, n := range stageNames {
			stages += fmt.Sprintf(" %s %.0f%%", n,
				100*float64(pr.stageNS[i])/float64(totalNS))
		}
	}
	fmt.Fprintf(p.cfg.Progress,
		"[%8s] %d iters  %.0f/s  accept %.1f%%  coverage %d  bugs %d%s\n",
		now.Sub(start).Round(time.Second), pr.iters, rate, 100*acc,
		pr.coverage, pr.bugs, stages)
	return pr.iters
}

func remaining(quota []int) bool {
	for _, q := range quota {
		if q > 0 {
			return true
		}
	}
	return false
}
