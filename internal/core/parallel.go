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
	round  int // completed coordinator rounds (checkpoint cadence)

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
	p := &ParallelCampaign{
		cfg:    cfg,
		global: coverage.NewMap(),
		stats:  NewStats(cfg.Source.Name(), cfg.Version),
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

// Run executes total fuzzing iterations divided evenly across the shards
// and returns the merged statistics. Like Campaign.Run it may be called
// repeatedly; accounting continues on the global iteration axis.
//
// A shard that fails ends Run with that shard's error once the round's
// barrier is reached, the way a failing unit fails a distributed
// campaign. With supervision enabled that includes a panic escaping the
// per-iteration containment (a failed kernel rebuild, say): runShard
// records it as a HarnessCrash in the shard's own statistics. The shard
// is not rebuilt and re-run: the harness is deterministic, so it would
// crash again.
//
// On error Run still merges every shard's statistics and returns them
// alongside the error — hours of fuzzing results from the other shards
// must not vanish because one shard failed.
func (p *ParallelCampaign) Run(total int) (*Stats, error) {
	quota := SplitQuota(total, len(p.shards))
	stopReport := p.startReporter()
	defer stopReport()

	var firstErr error
	for remaining(quota) && firstErr == nil && !p.stopped.Load() {
		errs := make([]error, len(p.shards))
		var wg sync.WaitGroup
		for i := range p.shards {
			n := min(quota[i], p.cfg.SyncEvery)
			if n == 0 {
				continue
			}
			quota[i] -= n
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				errs[i] = p.runShard(i, n)
			}(i, n)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("parallel campaign: shard %d: %w", i, err)
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

// runShard runs n iterations of shard i. Supervised, it recovers a panic
// that escaped the per-iteration containment: the panic becomes a
// HarnessCrash in the shard's statistics, the shard's kernel is dropped
// (the panic may have left it mid-rebuild), and the panic value is
// returned as the shard's error.
func (p *ParallelCampaign) runShard(i, n int) (err error) {
	sh := p.shards[i]
	if p.cfg.Supervision.Enabled {
		defer func() {
			if r := recover(); r != nil {
				sh.recordCrash(r, sh.stats.Iterations, nil)
				err = fmt.Errorf("panic: %v", r)
			}
		}()
	}
	_, err = sh.Run(n)
	return err
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
