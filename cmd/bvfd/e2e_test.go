package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/orchestrator"
	"repro/internal/triage"
)

// The e2e campaign: big enough that a unit takes seconds (so SIGKILLing
// a worker mid-lease is not a race), small enough to finish fast.
const (
	e2eIters = 180000
	e2eUnits = 3
	e2eSeed  = 42
	e2eSync  = 1000
)

// syncBuffer is a goroutine-safe capture of a subprocess's output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// buildBinaries compiles bvfd and bvf into a temp dir.
func buildBinaries(t *testing.T) (bvfd, bvf string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"bvfd", "bvf"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, msg)
		}
	}
	return filepath.Join(dir, "bvfd"), filepath.Join(dir, "bvf")
}

// TestE2EWorkerKilledMidLease is the full-stack smoke test: a real bvfd
// process coordinates real bvf -worker processes over TCP; one worker is
// SIGKILLed mid-lease; the campaign must still complete its full
// iteration quota with the same deduplicated finding set as an unfaulted
// in-process ParallelCampaign run.
func TestE2EWorkerKilledMidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e smoke test builds binaries and runs a real campaign")
	}
	if raceEnabled {
		t.Skip("reference campaign is too slow under the race detector; CI runs this uninstrumented")
	}
	bvfdBin, bvfBin := buildBinaries(t)

	// Unfaulted single-process reference (SyncEvery = per-shard quota:
	// one round, no cross-shard exchange, shards ≡ units).
	ver, err := orchestrator.ParseVersion("bpf-next")
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewParallelCampaign(core.ParallelConfig{
		CampaignConfig: core.CampaignConfig{
			Source: core.BVFSource(ver.HasKfuncs()), Version: ver,
			Sanitize: true, Seed: e2eSeed,
			Supervision: core.SupervisorConfig{Enabled: true},
		},
		Workers:   e2eUnits,
		SyncEvery: e2eIters / e2eUnits,
	})
	refStats, err := ref.Run(e2eIters)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}

	stateDir := t.TempDir()
	var coordOut syncBuffer
	coord := exec.Command(bvfdBin,
		"-addr", "127.0.0.1:0",
		"-iters", fmt.Sprint(e2eIters),
		"-units", fmt.Sprint(e2eUnits),
		"-seed", fmt.Sprint(e2eSeed),
		"-sync-every", fmt.Sprint(e2eSync),
		"-lease-ttl", "1s",
		"-state-dir", stateDir,
	)
	coord.Stdout = &coordOut
	coord.Stderr = &coordOut
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// The coordinator prints its bound address on startup.
	addrRE := regexp.MustCompile(`on (127\.0\.0\.1:\d+) `)
	var baseURL string
	for deadline := time.Now().Add(15 * time.Second); ; {
		if m := addrRE.FindStringSubmatch(coordOut.String()); m != nil {
			baseURL = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bvfd never reported its address:\n%s", coordOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	status := orchestrator.NewClient(baseURL, "e2e-harness")

	startWorker := func(name string) *exec.Cmd {
		w := exec.Command(bvfBin, "-worker", "-coordinator", baseURL, "-worker-name", name)
		w.Stdout = os.Stderr
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatalf("start worker %s: %v", name, err)
		}
		return w
	}

	// The doomed worker goes first, alone, so it is the one holding a
	// lease when the SIGKILL lands.
	doomed := startWorker("doomed")
	defer doomed.Process.Kill()
	killed := false
	for deadline := time.Now().Add(30 * time.Second); !killed; {
		st, err := status.Status("")
		if err == nil {
			for _, u := range st.Units {
				if u.State == "leased" && u.Worker == "doomed" {
					// Mid-lease, microseconds into a multi-second unit.
					if err := doomed.Process.Kill(); err != nil {
						t.Fatalf("SIGKILL doomed worker: %v", err)
					}
					doomed.Wait()
					killed = true
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("doomed worker never held a lease:\n%s", coordOut.String())
		}
		if !killed {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Two survivors finish the campaign, including the refunded unit.
	w1, w2 := startWorker("survivor-1"), startWorker("survivor-2")
	defer w1.Process.Kill()
	defer w2.Process.Kill()

	coordErr := make(chan error, 1)
	go func() { coordErr <- coord.Wait() }()
	select {
	case err := <-coordErr:
		if err != nil {
			t.Fatalf("bvfd exited with %v:\n%s", err, coordOut.String())
		}
	case <-time.After(3 * time.Minute):
		t.Fatalf("campaign never completed:\n%s", coordOut.String())
	}
	if err := w1.Wait(); err != nil {
		t.Errorf("survivor-1: %v", err)
	}
	if err := w2.Wait(); err != nil {
		t.Errorf("survivor-2: %v", err)
	}

	out := coordOut.String()
	// Full quota despite the mid-lease kill.
	if m := regexp.MustCompile(`iterations:\s+(\d+)`).FindStringSubmatch(out); m == nil || m[1] != fmt.Sprint(e2eIters) {
		t.Errorf("iterations line = %v, want %d\n%s", m, e2eIters, out)
	}
	// The kill cost a lease (re-run), never budget.
	if m := regexp.MustCompile(`refunded leases:\s+(\d+)`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("refunded leases line = %v, want >= 1\n%s", m, out)
	}

	// Bug-for-bug equivalence with the unfaulted reference, including
	// discovery iterations (printed on the global axis both sides).
	bugRE := regexp.MustCompile(`\[iter\s+(\d+)\]\s+(\S+)\s+indicator(\d+)\s+(.+)`)
	got := map[string]bool{}
	for _, m := range bugRE.FindAllStringSubmatch(out, -1) {
		got[fmt.Sprintf("%s|%s|%s|%s", m[1], m[2], m[3], m[4])] = true
	}
	var want []string
	for _, rec := range refStats.Bugs {
		want = append(want, fmt.Sprintf("%d|%s|%d|%v", rec.FoundAt, rec.ID, rec.Indicator, rec.Kind))
	}
	sort.Strings(want)
	for _, w := range want {
		if !got[w] {
			t.Errorf("reference bug %q missing from distributed campaign", w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("distributed campaign reported %d bugs, reference found %d\n%s", len(got), len(want), out)
	}

	// The shared registry holds one finding per deduplicated BugKey,
	// under the campaign's own corner of the state dir.
	store, err := triage.Open(filepath.Join(stateDir, "c1", "findings"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := store.Len(), len(refStats.Bugs); got != want {
		t.Errorf("findings store has %d entries, want %d", got, want)
	}
	if d := store.Damaged(); len(d) != 0 {
		t.Errorf("damaged findings: %v", d)
	}
}

// refCampaign runs the unfaulted single-process reference a distributed
// campaign must be bit-identical to.
func refCampaign(t *testing.T, seed int64, iters, units int) *core.Stats {
	t.Helper()
	ver, err := orchestrator.ParseVersion("bpf-next")
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewParallelCampaign(core.ParallelConfig{
		CampaignConfig: core.CampaignConfig{
			Source: core.BVFSource(ver.HasKfuncs()), Version: ver,
			Sanitize: true, Seed: seed,
			Supervision: core.SupervisorConfig{Enabled: true},
		},
		Workers:   units,
		SyncEvery: iters / units,
	})
	st, err := ref.Run(iters)
	if err != nil {
		t.Fatalf("reference campaign (seed %d): %v", seed, err)
	}
	return st
}

// waitForAddr extracts the coordinator's bound address from its startup
// banner.
func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	addrRE := regexp.MustCompile(`on (127\.0\.0\.1:\d+) `)
	for deadline := time.Now().Add(15 * time.Second); ; {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("bvfd never reported its address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bugSet extracts "<foundAt>|<id>|<indicator>|<kind>" lines from one
// campaign's printed block.
func bugSet(out string) map[string]bool {
	bugRE := regexp.MustCompile(`\[iter\s+(\d+)\]\s+(\S+)\s+indicator(\d+)\s+(.+)`)
	set := map[string]bool{}
	for _, m := range bugRE.FindAllStringSubmatch(out, -1) {
		set[fmt.Sprintf("%s|%s|%s|%s", m[1], m[2], m[3], strings.TrimSpace(m[4]))] = true
	}
	return set
}

// TestE2EDrainChaos is the full-service chaos drill: a bvfd service
// hosts two token-authenticated campaigns submitted over the control
// plane while real workers execute units; one worker is SIGKILLed
// mid-lease, then the coordinator is SIGTERMed mid-campaign and must
// drain and exit 0. A second bvfd resumes both campaigns from the state
// dir, fresh workers finish them, and both must print results identical
// to their unfaulted single-process references.
func TestE2EDrainChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e chaos drill builds binaries and runs real campaigns")
	}
	if raceEnabled {
		t.Skip("reference campaigns are too slow under the race detector; CI runs this uninstrumented")
	}
	bvfdBin, bvfBin := buildBinaries(t)

	const (
		chaosIters = 90000
		chaosUnits = 3
		seed1      = 42
		seed2      = 1337
	)
	ref1 := refCampaign(t, seed1, chaosIters, chaosUnits)
	ref2 := refCampaign(t, seed2, chaosIters, chaosUnits)

	stateDir := t.TempDir()
	startCoord := func(out *syncBuffer, extra ...string) *exec.Cmd {
		t.Helper()
		args := append([]string{
			"-addr", "127.0.0.1:0",
			"-state-dir", stateDir,
			"-lease-ttl", "2s",
		}, extra...)
		c := exec.Command(bvfdBin, args...)
		c.Stdout = out
		c.Stderr = out
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	startWorker := func(baseURL, name string) *exec.Cmd {
		t.Helper()
		w := exec.Command(bvfBin, "-worker", "-coordinator", baseURL, "-worker-name", name)
		w.Stdout = os.Stderr
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatalf("start worker %s: %v", name, err)
		}
		return w
	}

	// Phase 1: the service, with admission control on.
	var out1 syncBuffer
	coord := startCoord(&out1, "-serve", "-auth", "alice=tok-a")
	defer coord.Process.Kill()
	baseURL := waitForAddr(t, &out1)

	// Two campaigns submitted over the control plane with bvf -submit.
	for _, seed := range []int{seed1, seed2} {
		sub := exec.Command(bvfBin, "-submit",
			"-coordinator", baseURL, "-token", "tok-a",
			"-iters", fmt.Sprint(chaosIters),
			"-workers", fmt.Sprint(chaosUnits),
			"-seed", fmt.Sprint(seed),
		)
		if msg, err := sub.CombinedOutput(); err != nil {
			t.Fatalf("bvf -submit (seed %d): %v\n%s", seed, err, msg)
		}
	}

	doomed := startWorker(baseURL, "doomed")
	defer doomed.Process.Kill()
	w2 := startWorker(baseURL, "steady")
	defer w2.Process.Kill()

	// SIGKILL the doomed worker the moment it holds a lease.
	status := orchestrator.NewClient(baseURL, "e2e-harness")
	killed := false
	for deadline := time.Now().Add(30 * time.Second); !killed; {
		for _, campaign := range []string{"c1", "c2"} {
			st, err := status.Status(campaign)
			if err != nil {
				continue
			}
			for _, u := range st.Units {
				if u.State == "leased" && u.Worker == "doomed" {
					if err := doomed.Process.Kill(); err != nil {
						t.Fatalf("SIGKILL doomed worker: %v", err)
					}
					doomed.Wait()
					killed = true
					break
				}
			}
			if killed {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("doomed worker never held a lease:\n%s", out1.String())
		}
		if !killed {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// SIGTERM the coordinator mid-campaign: it must drain (the steady
	// worker's in-flight unit completes or expires), checkpoint, and
	// exit 0.
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	coordErr := make(chan error, 1)
	go func() { coordErr <- coord.Wait() }()
	select {
	case err := <-coordErr:
		if err != nil {
			t.Fatalf("SIGTERMed bvfd exited with %v:\n%s", err, out1.String())
		}
	case <-time.After(time.Minute):
		t.Fatalf("bvfd never drained:\n%s", out1.String())
	}
	if !strings.Contains(out1.String(), "draining") {
		t.Errorf("no drain announcement in coordinator output:\n%s", out1.String())
	}
	// The steady worker is dismissed by the drain (or dies with the
	// connection); either way the restart replays anything it lost.
	w2done := make(chan struct{})
	go func() { w2.Wait(); close(w2done) }()
	select {
	case <-w2done:
	case <-time.After(15 * time.Second):
		w2.Process.Kill()
		<-w2done
	}

	// Phase 2: a fresh bvfd resumes both campaigns from the state dir
	// (one-shot mode: no flag campaign is submitted when the registry
	// restored one) and fresh workers finish them.
	var out2 syncBuffer
	coord2 := startCoord(&out2)
	defer coord2.Process.Kill()
	baseURL2 := waitForAddr(t, &out2)
	if !strings.Contains(out2.String(), "resuming 2 persisted campaign(s)") {
		t.Fatalf("restarted bvfd did not resume the registry:\n%s", out2.String())
	}

	s1 := startWorker(baseURL2, "fresh-1")
	defer s1.Process.Kill()
	s2 := startWorker(baseURL2, "fresh-2")
	defer s2.Process.Kill()

	coord2Err := make(chan error, 1)
	go func() { coord2Err <- coord2.Wait() }()
	select {
	case err := <-coord2Err:
		if err != nil {
			t.Fatalf("resumed bvfd exited with %v:\n%s", err, out2.String())
		}
	case <-time.After(3 * time.Minute):
		t.Fatalf("resumed campaigns never completed:\n%s", out2.String())
	}
	if err := s1.Wait(); err != nil {
		t.Errorf("fresh-1: %v", err)
	}
	if err := s2.Wait(); err != nil {
		t.Errorf("fresh-2: %v", err)
	}

	// Both campaigns completed with reference-identical results. The
	// final summary prints one block per campaign; split on the block
	// headers and compare each against its reference.
	out := out2.String()
	headerRE := regexp.MustCompile(`(?m)^\[(c\d)\] (\w+) `)
	headers := headerRE.FindAllStringSubmatchIndex(out, -1)
	blocks := map[string]string{}
	for i, h := range headers {
		end := len(out)
		if i+1 < len(headers) {
			end = headers[i+1][0]
		}
		id := out[h[2]:h[3]]
		if state := out[h[4]:h[5]]; state != "completed" {
			t.Errorf("campaign %s final state = %q, want completed", id, state)
		}
		blocks[id] = out[h[0]:end]
	}
	refs := map[string]*core.Stats{"c1": ref1, "c2": ref2}
	itersRE := regexp.MustCompile(`iterations:\s+(\d+)`)
	for id, ref := range refs {
		block, ok := blocks[id]
		if !ok {
			t.Errorf("no summary block for campaign %s:\n%s", id, out)
			continue
		}
		if m := itersRE.FindStringSubmatch(block); m == nil || m[1] != fmt.Sprint(chaosIters) {
			t.Errorf("campaign %s iterations line = %v, want %d", id, m, chaosIters)
		}
		got := bugSet(block)
		want := map[string]bool{}
		for _, rec := range ref.Bugs {
			want[fmt.Sprintf("%d|%s|%d|%v", rec.FoundAt, rec.ID, rec.Indicator, rec.Kind)] = true
		}
		for b := range want {
			if !got[b] {
				t.Errorf("campaign %s: reference bug %q missing", id, b)
			}
		}
		for b := range got {
			if !want[b] {
				t.Errorf("campaign %s: extra bug %q", id, b)
			}
		}
		store, err := triage.Open(filepath.Join(stateDir, id, "findings"))
		if err != nil {
			t.Fatal(err)
		}
		if gotLen, wantLen := store.Len(), len(ref.Bugs); gotLen != wantLen {
			t.Errorf("campaign %s findings store has %d entries, want %d", id, gotLen, wantLen)
		}
		if d := store.Damaged(); len(d) != 0 {
			t.Errorf("campaign %s damaged findings: %v", id, d)
		}
	}
}
