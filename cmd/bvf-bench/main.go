// Command bvf-bench regenerates the paper's evaluation tables and figures
// against the simulated kernel.
//
// Usage:
//
//	bvf-bench -exp table2     [-budget N] [-seeds N]
//	bvf-bench -exp fig6       [-budget N] [-repeats N]   (also prints Table 3)
//	bvf-bench -exp acceptance [-budget N]
//	bvf-bench -exp overhead   [-corpus N] [-repeats N]
//	bvf-bench -exp all
//
// Every campaign-driven experiment runs each campaign as the paper's
// single unsupervised fuzzing instance.
//
// bvf-bench -bench-json FILE runs a fixed-seed throughput benchmark
// (instead of an experiment) and writes a machine-readable report —
// iterations/sec, allocations per iteration, per-stage time shares, peak
// verifier worklist — to FILE, for tracking the hot path's performance
// across changes. -cpuprofile/-memprofile/-trace attach the standard Go
// collectors to either mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/prof"
	"repro/internal/vcache"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred cleanup (profile flushing)
// survives every exit path.
func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment: table2, fig6, table3, acceptance, overhead, ablation, all")
		budget     = flag.Int("budget", 0, "iteration budget (0 = per-experiment default)")
		seeds      = flag.Int("seeds", 3, "campaign seeds for table2")
		repeats    = flag.Int("repeats", 3, "repetitions for fig6/overhead")
		corpus     = flag.Int("corpus", 708, "self-test corpus size for overhead")
		benchJSON  = flag.String("bench-json", "", "run the fixed-seed throughput benchmark and write a JSON report to this file")
		oracleFlag = flag.Bool("oracle", false, "arm the abstract-state soundness oracle in the -bench-json campaign (measures its overhead)")
		cacheFlag  = flag.Bool("cache", true, "memoize verifier verdicts in the -bench-json campaign (the committed baselines are cached; an -oracle run records claims on every verification, so it never builds a cache)")
		baseline   = flag.String("bench-baseline", "", "committed BENCH_*.json to compare against; differing counts or a >20% iters/sec regression fail the run")
		minHitRate = flag.Float64("min-hit-rate", 0, "fail the -bench-json run when the whole-program cache hit rate is below this fraction")
	)
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, perr := profFlags.Start()
	defer stopProf()
	if perr != nil {
		fmt.Fprintf(os.Stderr, "bvf-bench: %v\n", perr)
		return 1
	}
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *budget, *oracleFlag, *cacheFlag, *baseline, *minHitRate); err != nil {
			fmt.Fprintf(os.Stderr, "bvf-bench: %v\n", err)
			return 1
		}
		return 0
	}

	pick := func(def int) int {
		if *budget > 0 {
			return *budget
		}
		return def
	}

	runExp := func(name string) {
		switch name {
		case "table2":
			res, err := experiments.Table2(pick(120000), *seeds)
			fail(err)
			res.Print(os.Stdout)
		case "fig6", "table3":
			res, err := experiments.Fig6(pick(40000), *repeats)
			fail(err)
			res.Print(os.Stdout)
		case "acceptance":
			res, err := experiments.Acceptance(pick(20000))
			fail(err)
			res.Print(os.Stdout)
		case "overhead":
			res, err := experiments.Overhead(*corpus, *repeats)
			fail(err)
			res.Print(os.Stdout)
		case "ablation":
			res, err := experiments.Ablation(pick(20000))
			fail(err)
			res.Print(os.Stdout)
			fmt.Println()
			sres, serr := experiments.SanitizerAblation(*corpus)
			fail(serr)
			sres.Print(os.Stdout)
		default:
			fmt.Fprintf(os.Stderr, "bvf-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"table2", "fig6", "acceptance", "overhead", "ablation"} {
			runExp(name)
		}
		return 0
	}
	runExp(*exp)
	return 0
}

// BenchReport is the -bench-json output: one fixed-seed campaign's
// throughput and allocation profile, comparable across code changes.
type BenchReport struct {
	Tool          string  `json:"tool"`
	Version       string  `json:"version"`
	Seed          int64   `json:"seed"`
	Iterations    int     `json:"iterations"`
	Seconds       float64 `json:"seconds"`
	ItersPerSec   float64 `json:"iters_per_sec"`
	AllocsPerIter float64 `json:"allocs_per_iter"`
	BytesPerIter  float64 `json:"bytes_per_iter"`
	PeakWorklist  int     `json:"peak_worklist"`
	Accepted      int     `json:"accepted"`
	CoverageSites int     `json:"coverage_sites"`
	Bugs          int     `json:"bugs"`
	// StageSeconds attributes the whole wall clock: the measured pipeline
	// stages plus an explicit "other" residual (campaign loop, curve
	// sampling, kernel recycling), so the values sum to Seconds and
	// cross-report stage comparisons are honest.
	StageSeconds map[string]float64 `json:"stage_seconds"`
	// Oracle fields are zero unless -oracle armed the soundness checker.
	Oracle              bool `json:"oracle"`
	SoundnessChecks     int  `json:"soundness_checks,omitempty"`
	SoundnessViolations int  `json:"soundness_violations,omitempty"`
	// Cache fields are zero unless -cache armed the verdict cache. The
	// rate is derived (hits/(hits+misses)) so reports are comparable at
	// a glance without recomputing it.
	Cached       bool    `json:"cached"`
	CacheHits    int64   `json:"cache_hits,omitempty"`
	CacheMisses  int64   `json:"cache_misses,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// Mutation-scheduler shape: the configured sibling-batch size and
	// the batch/sibling counts the campaign actually recorded.
	MutateBatch    int `json:"mutate_batch"`
	MutateBatches  int `json:"mutate_batches,omitempty"`
	MutateSiblings int `json:"mutate_siblings,omitempty"`
}

// buildReport assembles the BenchReport from one finished campaign. The
// stage map always contains an "other" entry making stage_seconds sum to
// seconds exactly (see TestBenchReportStagesSumToSeconds).
func buildReport(st *core.Stats, elapsed time.Duration, allocs, bytes uint64, oracle, cached bool, batch int) BenchReport {
	rep := BenchReport{
		Tool:          st.Tool,
		Version:       st.Version.String(),
		Seed:          7,
		Iterations:    st.Iterations,
		Seconds:       elapsed.Seconds(),
		ItersPerSec:   float64(st.Iterations) / elapsed.Seconds(),
		AllocsPerIter: float64(allocs) / float64(st.Iterations),
		BytesPerIter:  float64(bytes) / float64(st.Iterations),
		PeakWorklist:  st.PeakWorklist,
		Accepted:      st.Accepted,
		CoverageSites: st.Coverage.Count(),
		Bugs:          len(st.Bugs),
		StageSeconds:  make(map[string]float64, len(st.StageNanos)+1),

		Oracle:              oracle,
		SoundnessChecks:     st.SoundnessChecks,
		SoundnessViolations: st.SoundnessViolations,

		Cached:      cached,
		CacheHits:   st.CacheHits,
		CacheMisses: st.CacheMisses,

		MutateBatch:    batch,
		MutateBatches:  st.MutateBatches,
		MutateSiblings: st.MutateSiblings,
	}
	if lk := rep.CacheHits + rep.CacheMisses; lk > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(lk)
	}
	accounted := 0.0
	for stage, ns := range st.StageNanos {
		s := time.Duration(ns).Seconds()
		rep.StageSeconds[stage] = s
		accounted += s
	}
	other := rep.Seconds - accounted
	if other < 0 {
		// Stage clocks can only overshoot the outer wall clock by timer
		// granularity; clamp so the invariant stays exact.
		for stage := range rep.StageSeconds {
			rep.StageSeconds[stage] *= rep.Seconds / accounted
		}
		other = 0
	}
	rep.StageSeconds["other"] = other
	return rep
}

// runBenchJSON runs the fixed-seed throughput benchmark — the golden
// single-shard campaign configuration on seed 7 — and writes the report
// to path. Allocations are measured as the runtime's Mallocs/TotalAlloc
// delta across the campaign, so the number covers the whole pipeline
// (generate, verify, sanitize, execute, triage), not just the verifier.
// An oracle run gets no verdict cache: every verification records
// claims, and the verifier never caches those.
func runBenchJSON(path string, budget int, oracle, cached bool, baselinePath string, minHitRate float64) error {
	iters := budget
	if iters <= 0 {
		iters = 3000
	}
	cached = cached && !oracle
	cfg := core.CampaignConfig{
		Source: core.BVFSource(true), Version: kernel.BPFNext,
		Sanitize: true, Seed: 7, Oracle: oracle,
	}
	if cached {
		cfg.Cache = vcache.NewStore(0)
	}
	c := core.NewCampaign(cfg)
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	start := time.Now()
	st, err := c.Run(iters)
	elapsed := time.Since(start)
	goruntime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	rep := buildReport(st, elapsed,
		after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc,
		oracle, cached, c.MutateBatch())
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: %d iterations in %.2fs  %.0f iters/sec  %.0f allocs/iter  peak worklist %d  -> %s\n",
		rep.Iterations, rep.Seconds, rep.ItersPerSec, rep.AllocsPerIter, rep.PeakWorklist, path)
	if oracle {
		fmt.Printf("bench: oracle checked %d claims, %d violation(s), %.2fs in oracle stage\n",
			rep.SoundnessChecks, rep.SoundnessViolations, rep.StageSeconds["oracle"])
	}
	if cached {
		fmt.Printf("bench: verdict cache %d/%d hits (%.1f%%), batch %d (%d batches, %d siblings)\n",
			rep.CacheHits, rep.CacheHits+rep.CacheMisses, 100*rep.CacheHitRate,
			rep.MutateBatch, rep.MutateBatches, rep.MutateSiblings)
	}
	if minHitRate > 0 && rep.CacheHitRate < minHitRate {
		return fmt.Errorf("bench: whole-program cache hit rate %.1f%% is below the -min-hit-rate floor %.1f%%",
			100*rep.CacheHitRate, 100*minHitRate)
	}
	if baselinePath != "" {
		return checkBaseline(rep, baselinePath)
	}
	return nil
}

// checkBaseline compares a fresh report against a committed one. It fails
// when a count differs — the campaign is deterministic at a fixed seed
// and budget, so any drift is a behaviour change — or when throughput
// regressed by more than 20%, a smoke gate coarse enough to survive
// CI-runner noise but tight enough to catch a hot path that quietly fell
// off a cliff.
func checkBaseline(rep BenchReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench baseline: %s: %w", path, err)
	}
	if base.ItersPerSec <= 0 {
		return fmt.Errorf("bench baseline: %s has no iters_per_sec", path)
	}
	ratio := rep.ItersPerSec / base.ItersPerSec
	fmt.Printf("bench: %.0f iters/sec vs baseline %.0f (%.2fx, %s)\n",
		rep.ItersPerSec, base.ItersPerSec, ratio, path)
	var drift []string
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"iterations", rep.Iterations, base.Iterations},
		{"accepted", rep.Accepted, base.Accepted},
		{"coverage_sites", rep.CoverageSites, base.CoverageSites},
		{"bugs", rep.Bugs, base.Bugs},
	} {
		if c.got != c.want {
			drift = append(drift, fmt.Sprintf("%s %d (baseline %d)", c.name, c.got, c.want))
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("bench baseline: counts differ from %s: %s", path, strings.Join(drift, ", "))
	}
	if ratio < 0.8 {
		return fmt.Errorf("bench baseline: throughput regressed to %.2fx of %s (floor 0.80x)", ratio, path)
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvf-bench: %v\n", err)
		os.Exit(1)
	}
}
