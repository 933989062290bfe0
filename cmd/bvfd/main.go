// Command bvfd is the fuzzing-as-a-service coordinator: a campaign
// lifecycle manager that serves leased work units from any number of
// concurrent campaigns to bvf -worker processes over a small HTTP+JSON
// control plane.
//
// Usage:
//
//	bvfd [-addr HOST:PORT] [-state-dir DIR] [-lease-ttl D] [-serve]
//	     [-auth SPEC] [-max-active N] [-max-inflight N] [-retry-after D]
//	     [-version bpf-next|v6.1|v5.15] [-iters N] [-seed N] [-units N]
//	     [-tool bvf|syzkaller|buzzer|buzzer-random] [-nosanitize]
//	     [-oracle] [-sync-every N] [-triage]
//
// Two modes:
//
//   - One-shot (default): the spec flags describe a single campaign that
//     is submitted at startup; bvfd exits when it completes, after
//     printing the merged statistics. With -state-dir, a restarted bvfd
//     resumes the persisted campaigns instead of submitting a new one.
//   - Service (-serve): bvfd runs until signaled; campaigns are
//     submitted, listed, stopped, and drained over the control plane
//     (see bvf -submit and friends).
//
// Units are leased with a TTL kept alive by worker heartbeats; a worker
// that dies simply stops heartbeating and its unit is re-leased with its
// full iteration quota. Lease fencing tokens carry the coordinator
// incarnation, which -state-dir persists across restarts.
//
// SIGTERM/SIGINT triggers a graceful drain: no new leases are granted,
// in-flight units complete (or their leases expire), every campaign's
// lease table is checkpointed, and bvfd exits cleanly. Campaign
// lifecycle states survive: a restarted bvfd resumes them.
//
// -auth enables admission control. Its value is a comma-separated list
// of client entries "name=token[:maxcampaigns[:maxiters]]"; submissions
// must then carry a listed token, each client is bounded to its
// concurrent-campaign quota (excess is shed with 429 + Retry-After), and
// a campaign whose budget exceeds the client's per-campaign iteration
// cap is rejected outright.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/orchestrator"
	"repro/internal/triage"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:8377", "control-plane listen address")
		stateDir = flag.String("state-dir", "", "root directory for crash-safe coordinator state (empty: in-memory)")
		leaseTTL = flag.Duration("lease-ttl", 15*time.Second, "lease expiry without a heartbeat")
		serve    = flag.Bool("serve", false, "run as a long-lived service (campaigns are submitted over the control plane)")

		authSpec    = flag.String("auth", "", "admission control: comma-separated name=token[:maxcampaigns[:maxiters]] client entries (empty: open access)")
		maxActive   = flag.Int("max-active", 0, "concurrently running campaigns; excess queue as pending (0: unlimited)")
		maxInflight = flag.Int("max-inflight", 0, "concurrent lease/submit requests before shedding with 429 (0: unlimited)")
		retryAfter  = flag.Duration("retry-after", 0, "Retry-After hint attached to shed (429) responses (0: derived)")

		version   = flag.String("version", "bpf-next", "kernel version: v5.15, v6.1 or bpf-next")
		iters     = flag.Int("iters", 100000, "campaign-wide iteration budget")
		seed      = flag.Int64("seed", 1, "campaign seed")
		units     = flag.Int("units", 8, "work units (shards of the equivalent single-process campaign)")
		tool      = flag.String("tool", "bvf", "generator: bvf, syzkaller, buzzer, buzzer-random")
		noSan     = flag.Bool("nosanitize", false, "disable the BVF sanitation patches")
		oracle    = flag.Bool("oracle", false, "arm the abstract-state soundness oracle on every worker")
		syncEvery = flag.Int("sync-every", 1024, "worker round length in iterations (bounds abandon latency)")

		doTriage = flag.Bool("triage", false, "run the validation gauntlet over each campaign's findings before exiting (one-shot mode)")
		verbose  = flag.Bool("v", false, "log every lease, heartbeat rejection, lifecycle transition, and unit completion")
	)
	flag.Parse()

	auth, err := parseAuth(*authSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
		return 1
	}
	logf := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(os.Stderr, "bvfd: "+format+"\n", args...)
		}
	}
	mgr, err := orchestrator.NewManager(orchestrator.ManagerConfig{
		StateDir:     *stateDir,
		LeaseTTL:     *leaseTTL,
		Auth:         auth,
		MaxActive:    *maxActive,
		MaxInflight:  *maxInflight,
		RetryAfter:   *retryAfter,
		ExitWhenIdle: !*serve,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
		return 1
	}

	// One-shot mode submits the flag-described campaign — unless the
	// state dir restored previous campaigns, in which case this run
	// resumes them (a restart must not duplicate the campaign).
	if !*serve {
		restored, err := mgr.List(orchestrator.ListRequest{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
			return 1
		}
		if len(restored.Campaigns) == 0 {
			spec := orchestrator.CampaignSpec{
				Tool:       *tool,
				Version:    *version,
				Sanitize:   !*noSan,
				Oracle:     *oracle,
				Seed:       *seed,
				TotalIters: *iters,
				Units:      *units,
				SyncEvery:  *syncEvery,
			}
			if _, err := mgr.Submit(orchestrator.SubmitRequest{Spec: spec}); err != nil {
				fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
				return 1
			}
		} else {
			fmt.Printf("bvfd: resuming %d persisted campaign(s) from %s\n", len(restored.Campaigns), *stateDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
		return 1
	}
	// Timeouts bound how long a slow or stalled client holds a connection;
	// the largest body, a unit's result, is about 25 KB.
	srv := &http.Server{
		Handler:           orchestrator.NewServer(mgr),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	mode := "one-shot"
	if *serve {
		mode = "service"
	}
	fmt.Printf("bvfd: %s coordinator on %s (lease TTL %s, state %q)\n", mode, ln.Addr(), *leaseTTL, *stateDir)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	start := time.Now()
	pollInterval := *leaseTTL / 4

	select {
	case <-mgr.Done():
	case sig := <-sigs:
		// Graceful drain: stop granting leases, let in-flight units
		// complete (or expire), checkpoint everything, exit cleanly.
		n := mgr.Drain()
		fmt.Fprintf(os.Stderr, "bvfd: %v: draining %d active campaign(s)\n", sig, n)
		deadline := time.Now().Add(2 * *leaseTTL)
		for !mgr.Quiesced() && time.Now().Before(deadline) {
			time.Sleep(100 * time.Millisecond)
		}
		mgr.CheckpointAll()
		// Answer a few more polls so every waiting worker's next lease
		// call sees StatusDrain and exits cleanly.
		grace := 2 * pollInterval
		if grace < time.Second {
			grace = time.Second
		}
		time.Sleep(grace)
		_ = srv.Close()
		fmt.Fprintf(os.Stderr, "bvfd: drained; state checkpointed, exiting\n")
		printCampaigns(mgr)
		return 0
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "bvfd: serve: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	// Keep answering for a couple of poll intervals so every waiting
	// worker's next lease call sees StatusDone and exits cleanly,
	// instead of dying on a refused connection.
	grace := 2 * pollInterval
	if grace < time.Second {
		grace = time.Second
	}
	time.Sleep(grace)
	_ = srv.Close()

	fmt.Printf("\nall campaigns complete in %s\n", elapsed.Round(time.Millisecond))
	printCampaigns(mgr)

	if *doTriage {
		list, _ := mgr.List(orchestrator.ListRequest{})
		for _, info := range list.Campaigns {
			store := mgr.Store(info.ID)
			if store == nil || store.Len() == 0 {
				continue
			}
			fmt.Printf("\n[%s] validating %d finding(s) through the gauntlet...\n\n", info.ID, store.Len())
			g := triage.New(triage.Config{}, store)
			sum, gerr := g.Run()
			sum.Print(os.Stdout)
			if gerr != nil {
				fmt.Fprintf(os.Stderr, "bvfd: triage %s: %v\n", info.ID, gerr)
				return 1
			}
		}
	}
	return 0
}

// printCampaigns renders every campaign's final summary.
func printCampaigns(mgr *orchestrator.Manager) {
	list, err := mgr.List(orchestrator.ListRequest{})
	if err != nil {
		return
	}
	for _, info := range list.Campaigns {
		fmt.Printf("\n[%s] %s owner=%s tool=%s units=%d/%d", info.ID, info.State, info.Owner, info.Spec.Tool, info.UnitsDone, info.Units)
		if info.Stopped {
			fmt.Printf(" (stopped)")
		}
		fmt.Println()
		if info.Failure != "" {
			fmt.Printf("  failure: %s\n", info.Failure)
			continue
		}
		st := mgr.MergedStats(info.ID)
		if st == nil {
			continue
		}
		fmt.Printf("  iterations:       %d\n", st.Iterations)
		fmt.Printf("  accepted:         %d (%.1f%%)\n", st.Accepted, 100*st.AcceptanceRate())
		fmt.Printf("  verifier coverage:%d branches\n", st.Coverage.Count())
		if cs, err := mgr.Status(orchestrator.StatusRequest{Campaign: info.ID}); err == nil {
			fmt.Printf("  refunded leases:  %d\n", cs.RefundedLeases)
		}
		fmt.Printf("  bugs found:       %d (%d verifier correctness, %d manifestations)\n",
			len(st.BugIDs()), st.VerifierBugsFound(), len(st.Bugs))
		var recs []*core.BugRecord
		for _, rec := range st.Bugs {
			recs = append(recs, rec)
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].FoundAt < recs[j].FoundAt })
		for _, rec := range recs {
			fmt.Printf("    [iter %7d] %-30s indicator%d  %s\n", rec.FoundAt, rec.ID, rec.Indicator, rec.Kind)
		}
	}
}

// parseAuth turns the -auth flag value into an AuthTable. Each comma-
// separated entry is "name=token[:maxcampaigns[:maxiters]]".
func parseAuth(spec string) (*orchestrator.AuthTable, error) {
	if spec == "" {
		return nil, nil
	}
	var quotas []orchestrator.ClientQuota
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("bad -auth entry %q: want name=token[:maxcampaigns[:maxiters]]", entry)
		}
		parts := strings.Split(rest, ":")
		q := orchestrator.ClientQuota{Name: name, Token: parts[0]}
		if len(parts) > 1 && parts[1] != "" {
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("bad -auth entry %q: maxcampaigns: %v", entry, err)
			}
			q.MaxCampaigns = n
		}
		if len(parts) > 2 && parts[2] != "" {
			n, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("bad -auth entry %q: maxiters: %v", entry, err)
			}
			q.MaxIters = n
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("bad -auth entry %q: too many fields", entry)
		}
		quotas = append(quotas, q)
	}
	return orchestrator.NewAuthTable(quotas)
}
