// Command bvf runs a BVF fuzzing campaign against the simulated kernel:
// structured program generation, verification, sanitation, execution, and
// correctness-bug detection via the two-indicator oracle.
//
// Usage:
//
//	bvf [-version bpf-next|v6.1|v5.15] [-iters N] [-seed N] [-workers N]
//	    [-tool bvf|syzkaller|buzzer|buzzer-random]
//	    [-nosanitize] [-v]
//	    [-checkpoint FILE] [-checkpoint-every N] [-resume]
//	    [-supervise] [-max-restarts N] [-watchdog D]
//	    [-triage] [-findings-dir DIR] [-oracle]
//	    [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//	bvf -worker [-coordinator URL] [-worker-name NAME]
//	bvf -submit [-coordinator URL] [-token T] [campaign flags]
//	bvf -campaigns | -campaign-status ID | -stop-campaign ID | -drain
//	    [-coordinator URL] [-token T]
//
// In -worker mode the process joins a distributed campaign instead of
// running its own: it registers with a bvfd coordinator, leases work
// units (seed + iteration quota), heartbeats while executing them, and
// submits each unit's statistics. The campaign definitions come from the
// coordinator with each lease; the local campaign flags are ignored.
//
// The campaign subcommands manage a multi-campaign bvfd service:
// -submit admits a new campaign built from the local campaign flags
// (-iters, -seed, -workers as the unit count, -tool, ...), -campaigns
// lists the registry, -campaign-status prints one campaign's lease
// table, -stop-campaign drains one campaign to completion with partial
// results, and -drain gracefully shuts down the whole coordinator.
// -token authenticates against a bvfd started with -auth.
//
// The campaign is sharded across -workers parallel fuzzing instances
// (default: all CPUs), each with its own simulated kernel, RNG and
// corpus; a coordinator merges coverage and exchanges coverage-novel
// programs between shards. Progress is reported on stderr every few
// seconds and once more when fuzzing ends.
//
// Long campaigns are crash-safe: with -checkpoint the coordinator
// atomically snapshots the whole campaign (corpus, coverage, statistics,
// RNG positions) every -checkpoint-every rounds, and -resume continues a
// previous campaign from its snapshot instead of restarting. SIGINT
// stops gracefully — the in-flight round finishes, a final checkpoint is
// written, and the statistics so far are printed. Supervision (on by
// default) contains harness panics as findings, rebuilds a crashed shard
// at once behind a circuit breaker, and bounds verification/execution
// wall-clock time with -watchdog.
//
// With -triage (on by default) every deduplicated finding passes the
// validation gauntlet after the campaign: deterministic replay,
// cross-version × sanitizer classification, flake quarantine, and
// budget-bounded minimization, with a per-verdict summary at the end.
// The gauntlet is the only minimizer: with -triage=false findings are
// reported unminimized.
// -findings-dir persists gauntlet state per finding (crash-consistent,
// like -checkpoint); a resumed run — even one whose fuzzing quota is
// already met — picks up any gauntlet left unfinished by a crash.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/orchestrator"
	"repro/internal/prof"
	"repro/internal/triage"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred cleanup (profile flushing)
// survives every exit path.
func run() int {
	var (
		versionFlag = flag.String("version", "bpf-next", "kernel version: v5.15, v6.1 or bpf-next")
		iters       = flag.Int("iters", 100000, "fuzzing iterations (total target; resumed runs do the remainder)")
		seed        = flag.Int64("seed", 1, "campaign seed")
		workers     = flag.Int("workers", runtime.NumCPU(), "parallel campaign shards")
		tool        = flag.String("tool", "bvf", "generator: bvf, syzkaller, buzzer, buzzer-random")
		noSan       = flag.Bool("nosanitize", false, "disable the BVF sanitation patches")
		verbose     = flag.Bool("v", false, "print each bug's raw program, and each finding's minimized reproducer after the gauntlet")

		ckptPath  = flag.String("checkpoint", "", "checkpoint file for crash-safe campaigns")
		ckptEvery = flag.Int("checkpoint-every", 8, "rounds between checkpoints")
		resume    = flag.Bool("resume", false, "resume the campaign from -checkpoint")
		supervise = flag.Bool("supervise", true, "contain harness crashes and restart crashed shards")
		maxRst    = flag.Int("max-restarts", 8, "per-shard restart budget before the shard is retired")
		watchdog  = flag.Duration("watchdog", 2*time.Second, "wall-clock limit per verification/execution (0 disables)")

		doTriage    = flag.Bool("triage", true, "run every finding through the validation gauntlet")
		findingsDir = flag.String("findings-dir", "", "directory for the crash-safe finding store (empty: in-memory)")
		oracleFlag  = flag.Bool("oracle", false, "differentially check abstract verifier state against concrete execution (indicator 3)")

		workerMode  = flag.Bool("worker", false, "run as an orchestrator worker: lease and execute units from -coordinator")
		coordinator = flag.String("coordinator", "http://127.0.0.1:8377", "bvfd coordinator URL for -worker mode and the campaign subcommands")
		workerName  = flag.String("worker-name", "", "worker identity offered to the coordinator (empty: assigned)")

		token      = flag.String("token", "", "bearer token for coordinator admission control")
		submit     = flag.Bool("submit", false, "submit the campaign described by the local flags to -coordinator and exit")
		listCamps  = flag.Bool("campaigns", false, "list the coordinator's campaigns and exit")
		statusID   = flag.String("campaign-status", "", "print one campaign's lease-table snapshot and exit")
		stopID     = flag.String("stop-campaign", "", "stop a campaign (it completes with partial results) and exit")
		drainCoord = flag.Bool("drain", false, "ask the coordinator to drain (finish in-flight units, checkpoint, exit) and exit")
	)
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()

	if *workerMode {
		// Worker mode ignores the campaign flags: the campaign spec comes
		// from the coordinator, which is what keeps a fleet consistent.
		return runWorker(*coordinator, *workerName)
	}
	// The campaign the flags describe, as a bvfd spec: a local run and a
	// submitted one map it onto their configuration through the same code.
	spec := orchestrator.CampaignSpec{
		Tool: *tool, Version: *versionFlag, Sanitize: !*noSan,
		Oracle: *oracleFlag, Seed: *seed, TotalIters: *iters,
		Units: *workers, SyncEvery: 1024,
	}
	if *submit || *listCamps || *statusID != "" || *stopID != "" || *drainCoord {
		return runCampaignOp(campaignOp{
			coordinator: *coordinator, token: *token, spec: spec,
			submit: *submit, list: *listCamps,
			statusID: *statusID, stopID: *stopID, drain: *drainCoord,
		})
	}

	stopProf, perr := profFlags.Start()
	defer stopProf()
	if perr != nil {
		fmt.Fprintf(os.Stderr, "bvf: %v\n", perr)
		return 1
	}

	cc, err := spec.CampaignConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvf: %v\n", err)
		return 2
	}

	// A resumed campaign must be rebuilt with the snapshot's identity:
	// the snapshot records where a specific (seed, workers) campaign was,
	// and mismatched flags would be rejected by Resume anyway.
	var snap *core.Snapshot
	if *resume {
		if *ckptPath == "" {
			fmt.Fprintln(os.Stderr, "bvf: -resume requires -checkpoint")
			return 2
		}
		snap, err = core.LoadSnapshot(*ckptPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvf: resume: %v\n", err)
			return 1
		}
		cc.Seed = snap.Seed
		*workers = snap.Workers
	}

	runIters := *iters
	if snap != nil {
		done := snap.TotalDone()
		if done >= runIters {
			// The fuzzing quota is met, but a crash may have left the
			// triage gauntlet unfinished: run 0 iterations (which merges
			// the restored statistics) and fall through to the gauntlet.
			if !*doTriage {
				fmt.Fprintf(os.Stderr, "bvf: checkpoint already has %d iterations (target %d), nothing to do\n", done, runIters)
				return 0
			}
			runIters = 0
			fmt.Printf("bvf: resuming from %s: %d iterations done, continuing triage\n", *ckptPath, done)
		} else {
			runIters -= done
			fmt.Printf("bvf: resuming from %s: %d iterations done, %d to go\n", *ckptPath, done, runIters)
		}
	}

	fmt.Printf("bvf: fuzzing Linux %s with %s for %d iterations (sanitize=%v, seed=%d, workers=%d)\n",
		cc.Version, cc.Source.Name(), *iters, cc.Sanitize, cc.Seed, *workers)
	cc.Supervision = core.SupervisorConfig{
		Enabled:       *supervise,
		MaxRestarts:   *maxRst,
		VerifyTimeout: timeoutOrOff(*watchdog),
		ExecTimeout:   timeoutOrOff(*watchdog),
	}
	start := time.Now()
	c := core.NewParallelCampaign(core.ParallelConfig{
		CampaignConfig:  cc,
		Workers:         *workers,
		Progress:        os.Stderr,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
	})
	if snap != nil {
		if err := c.Resume(snap); err != nil {
			fmt.Fprintf(os.Stderr, "bvf: resume: %v\n", err)
			return 1
		}
	}

	// Graceful SIGINT/SIGTERM: finish the round, checkpoint, report.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "bvf: stopping after the current round (interrupt again to kill)")
		c.Stop()
		signal.Stop(sigs)
	}()

	st, err := c.Run(runIters)
	stopped := errors.Is(err, core.ErrStopped)
	if err != nil && !stopped {
		// Partial statistics from the healthy shards still get reported
		// below before exiting nonzero.
		fmt.Fprintf(os.Stderr, "bvf: %v\n", err)
		if st == nil {
			return 1
		}
	}
	elapsed := time.Since(start)

	if stopped {
		note := ""
		if *ckptPath != "" {
			note = fmt.Sprintf(" (checkpoint written to %s; resume with -resume)", *ckptPath)
		}
		fmt.Printf("\nstopped by signal after %d iterations%s\n", st.Iterations, note)
	}
	fmt.Printf("\nelapsed:          %s (%.0f iters/sec)\n",
		elapsed.Round(time.Millisecond), float64(st.Iterations)/elapsed.Seconds())
	fmt.Printf("iterations:       %d\n", st.Iterations)
	fmt.Printf("accepted:         %d (%.1f%%)\n", st.Accepted, 100*st.AcceptanceRate())
	fmt.Printf("verifier coverage:%d branches\n", st.Coverage.Count())
	fmt.Printf("corpus:           %d programs\n", st.CorpusSize)
	if st.CrashCount > 0 || st.ShardRestarts > 0 {
		fmt.Printf("harness crashes:  %d contained (%d shard restarts)\n", st.CrashCount, st.ShardRestarts)
	}
	if len(st.WatchdogTrips) > 0 {
		fmt.Printf("watchdog trips:   %v\n", st.WatchdogTrips)
	}
	if st.SoundnessChecks > 0 {
		fmt.Printf("oracle:           %d claims checked, %d violation(s)\n",
			st.SoundnessChecks, st.SoundnessViolations)
	}
	if st.MutateBatches > 0 {
		fmt.Printf("mutation batches: %d (%d siblings, %.1f avg batch)\n",
			st.MutateBatches, st.MutateSiblings,
			float64(st.MutateSiblings)/float64(st.MutateBatches))
	}
	fmt.Printf("bugs found:       %d (%d verifier correctness, %d manifestations)\n\n",
		len(st.BugIDs()), st.VerifierBugsFound(), len(st.Bugs))

	var recs []*core.BugRecord
	for _, rec := range st.Bugs {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].FoundAt < recs[j].FoundAt })
	for _, rec := range recs {
		fmt.Printf("  [iter %7d] %-30s indicator%d  %s\n", rec.FoundAt, rec.ID, rec.Indicator, rec.Kind)
		if *verbose {
			fmt.Printf("    %s\n", rec.Err)
			if rec.Program != nil {
				fmt.Println(indent(rec.Program.String(), "    "))
			}
		}
	}
	if len(st.OtherAnomalies) > 0 {
		fmt.Printf("\nunattributed anomalies: %v\n", st.OtherAnomalies)
	}
	for _, cr := range st.HarnessCrashes {
		fmt.Printf("\nharness crash (shard %d, iter %d): %s\n", cr.Shard, cr.Iteration, cr.Value)
		if *verbose && cr.Program != nil {
			fmt.Println(indent(cr.Program.String(), "    "))
		}
	}
	if *doTriage && !stopped {
		if terr := runGauntlet(st, cc.Version, cc.Sanitize, cc.Oracle, *findingsDir, *verbose); terr != nil {
			note := ""
			if *findingsDir != "" {
				note = fmt.Sprintf(" (finding store %s is crash-safe; rerun with -resume to continue the gauntlet)", *findingsDir)
			}
			fmt.Fprintf(os.Stderr, "bvf: triage: %v%s\n", terr, note)
			return 1
		}
	}
	if err != nil && !stopped {
		return 1
	}
	return 0
}

// runWorker executes leased work units from a bvfd coordinator until the
// campaign completes. SIGINT/SIGTERM abandon the in-flight unit (its
// lease expires and the quota is refunded to the campaign).
func runWorker(coordinator, name string) int {
	w := orchestrator.NewWorker(orchestrator.WorkerConfig{
		Name:   name,
		Client: orchestrator.NewClient(coordinator, name),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bvf worker: "+format+"\n", args...)
		},
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "bvf worker: stopping at the next round edge")
		w.Stop()
		signal.Stop(sigs)
	}()
	if err := w.Run(); err != nil && !errors.Is(err, orchestrator.ErrUnitAbandoned) {
		fmt.Fprintf(os.Stderr, "bvf worker: %v\n", err)
		return 1
	}
	fmt.Printf("bvf worker: done (%d units completed)\n", w.UnitsDone())
	return 0
}

// campaignOp bundles one control-plane subcommand invocation.
type campaignOp struct {
	coordinator, token string
	spec               orchestrator.CampaignSpec
	submit, list       bool
	statusID, stopID   string
	drain              bool
}

// runCampaignOp executes the campaign-management subcommands against a
// bvfd coordinator. The client retries transient failures (including
// 429 shedding, honoring the server's Retry-After hint) and surfaces
// hard rejections — bad token, over-quota budget — immediately.
func runCampaignOp(op campaignOp) int {
	cl := orchestrator.NewClient(op.coordinator, "bvf-cli")
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bvf: %v\n", err)
		return 1
	}
	switch {
	case op.submit:
		resp, err := cl.Submit(orchestrator.SubmitRequest{Token: op.token, Spec: op.spec})
		if err != nil {
			return fail(err)
		}
		fmt.Printf("campaign %s submitted (%s): %s for %d iterations across %d units\n",
			resp.ID, resp.State, op.spec.Tool, op.spec.TotalIters, op.spec.Units)
	case op.list:
		resp, err := cl.Campaigns(orchestrator.ListRequest{Token: op.token})
		if err != nil {
			return fail(err)
		}
		if resp.Draining {
			fmt.Println("coordinator: DRAINING")
		}
		fmt.Printf("%-6s %-12s %-10s %-10s %8s %12s  %s\n", "ID", "OWNER", "STATE", "TOOL", "UNITS", "ITERS", "NOTES")
		for _, c := range resp.Campaigns {
			notes := ""
			if c.Stopped {
				notes = "stopped"
			}
			if c.Failure != "" {
				notes = "failure: " + c.Failure
			}
			fmt.Printf("%-6s %-12s %-10s %-10s %4d/%-4d %12d  %s\n",
				c.ID, c.Owner, c.State, c.Spec.Tool, c.UnitsDone, c.Units, c.Iterations, notes)
		}
	case op.statusID != "":
		resp, err := cl.Status(op.statusID)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("campaign %s: %s, %d/%d units done, %d iterations merged, %d refunded lease(s)\n",
			resp.Campaign, resp.State, resp.UnitsDone, len(resp.Units), resp.Iterations, resp.RefundedLeases)
		for _, u := range resp.Units {
			fmt.Printf("  unit %2d [%d iters] %-8s %s\n", u.ID, u.Quota, u.State, u.Worker)
		}
		for _, b := range resp.Bugs {
			fmt.Printf("  bug %s\n", b)
		}
	case op.stopID != "":
		resp, err := cl.StopCampaign(orchestrator.StopRequest{Token: op.token, ID: op.stopID})
		if err != nil {
			return fail(err)
		}
		fmt.Printf("campaign %s: %s\n", resp.ID, resp.State)
	case op.drain:
		resp, err := cl.Drain(orchestrator.DrainRequest{Token: op.token})
		if err != nil {
			return fail(err)
		}
		fmt.Printf("coordinator draining %d active campaign(s)\n", resp.Campaigns)
	}
	return 0
}

// runGauntlet validates the campaign's findings: replay, cross-config
// classification, quarantine, minimization — then prints the verdicts
// and, when verbose, every minimized reproducer.
func runGauntlet(st *core.Stats, version kernel.Version, sanitize, oracle bool, dir string, verbose bool) error {
	store, err := triage.Open(dir)
	if err != nil {
		return err
	}
	// Files the store had to skip are findings the operator thinks exist
	// but the gauntlet will not validate — say so rather than silently
	// reporting a smaller bug set.
	if damaged := store.Damaged(); len(damaged) > 0 {
		fmt.Printf("\nWARNING: %d corrupt finding file(s) skipped by the store:\n", len(damaged))
		for _, f := range damaged {
			fmt.Printf("  %s\n", f)
		}
	}
	g := triage.New(triage.Config{}, store)
	added, err := g.Ingest(st, triage.Env{Version: version, Sanitize: sanitize, Oracle: oracle})
	if err != nil {
		return err
	}
	if store.Len() == 0 {
		return nil
	}
	fmt.Printf("\nvalidating %d finding(s) (%d new) through the gauntlet...\n\n", store.Len(), added)
	sum, gerr := g.Run()
	sum.Print(os.Stdout)
	if verbose {
		for _, f := range sum.Findings {
			if f.Minimized != nil {
				fmt.Printf("\n%s minimized reproducer:\n", f.Key())
				fmt.Println(indent(f.Minimized.String(), "    "))
			}
		}
	}
	return gerr
}

// timeoutOrOff maps the 0 flag value onto the config's explicit
// "disabled" encoding (negative), keeping 0 = "use default" internal.
func timeoutOrOff(d time.Duration) time.Duration {
	if d <= 0 {
		return -1
	}
	return d
}

func indent(s, pre string) string {
	out := pre
	for _, c := range s {
		out += string(c)
		if c == '\n' {
			out += pre
		}
	}
	return out
}
