package triage

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/backoff"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
)

// Config parameterizes the gauntlet. Zero values select defaults.
type Config struct {
	// Replays is the number of deterministic-replay attempts per
	// validation round; all must reproduce the exact signature for the
	// finding to advance.
	Replays int
	// RetryCap bounds quarantine re-validation rounds. A finding still
	// flaky after the cap stays quarantined (with its evidence) — it is
	// reported as such, never silently dropped.
	RetryCap int
	// MinimizeRetries is how many watchdog-tripped minimization attempts
	// are retried (with backoff) before falling back to the unminimized
	// reproducer.
	MinimizeRetries int
	// Sleep, when non-nil, replaces time.Sleep for backoff waits (tests
	// stub it out).
	Sleep func(time.Duration)
}

// Fixed gauntlet bounds.
const (
	// backoffBase/backoffMax shape the exponential backoff between
	// quarantine re-validation rounds and minimization retries.
	backoffBase = 100 * time.Millisecond
	backoffMax  = 2 * time.Second
	// minimizeRounds and minimizeRoundBudget bound the minimization
	// stage; its total wall clock is core's default budget (see
	// core.MinimizeOptions).
	minimizeRounds      = 4
	minimizeRoundBudget = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Replays <= 0 {
		c.Replays = 5
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 3
	}
	if c.MinimizeRetries < 0 {
		c.MinimizeRetries = 0
	} else if c.MinimizeRetries == 0 {
		c.MinimizeRetries = 2
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Gauntlet drives findings through the validation stages, persisting
// after every transition.
type Gauntlet struct {
	cfg   Config
	store *Store
	// crashes is the harness-crash provenance used to correlate
	// non-reproducing findings with our own contained panics.
	crashes []core.HarnessCrash
}

// New builds a gauntlet over the given store.
func New(cfg Config, store *Store) *Gauntlet {
	return &Gauntlet{cfg: cfg.withDefaults(), store: store}
}

// Ingest converts a campaign's deduplicated bug manifestations (plus its
// unattributed anomaly samples) into raw findings and stores them at the
// first stage. Findings already in the store — a resumed run — keep
// their recorded stage and evidence. Harness-crash samples are absorbed
// as correlation provenance. Returns how many findings were added.
func (g *Gauntlet) Ingest(st *core.Stats, env Env) (int, error) {
	if st == nil {
		return 0, nil
	}
	g.crashes = append(g.crashes, st.HarnessCrashes...)
	added := 0
	ingest := func(f *Finding) error {
		if g.store.Has(f.Key()) {
			return nil
		}
		if err := g.store.Put(f); err != nil {
			return err
		}
		added++
		return nil
	}
	for key, rec := range st.Bugs {
		f := &Finding{Raw: RawFinding{
			Key: key, FoundAt: rec.FoundAt, Err: rec.Err,
			Program: rec.Program, Env: env,
		}}
		if err := ingest(f); err != nil {
			return added, err
		}
	}
	for _, rec := range st.UnattributedSamples {
		f := &Finding{Raw: RawFinding{
			Key:     core.BugKey{Indicator: rec.Indicator, Kind: rec.Kind},
			FoundAt: rec.FoundAt, Err: rec.Err, Program: rec.Program, Env: env,
		}}
		if err := ingest(f); err != nil {
			return added, err
		}
	}
	return added, nil
}

// Run drives every unfinished finding through the gauntlet. On error
// (store failure or an injected crash) the partial summary is returned
// alongside it; persisted stages mean a re-run continues where this one
// stopped.
func (g *Gauntlet) Run() (*Summary, error) {
	for _, f := range g.store.Sorted() {
		if f.Stage == StageDone {
			continue
		}
		if err := g.process(f); err != nil {
			return g.summary(), err
		}
	}
	return g.summary(), nil
}

// process advances one finding stage by stage, persisting after each.
// The "triage.stage" fault point sits in the crash window between
// stages: an injected error models the process dying there, with the
// last completed stage already durable.
func (g *Gauntlet) process(f *Finding) error {
	for f.Stage != StageDone {
		if err := faultinject.FireErr("triage.stage"); err != nil {
			return fmt.Errorf("triage: gauntlet interrupted before %s of %s: %w", f.Stage, f.Key(), err)
		}
		switch f.Stage {
		case StageReplay:
			g.stageReplay(f)
		case StageCrossConfig:
			g.stageCrossConfig(f)
		case StageMinimize:
			g.stageMinimize(f)
		}
		if err := g.store.Put(f); err != nil {
			return err
		}
	}
	return nil
}

// stageReplay runs one validation round of N deterministic replays in
// the finding's discovery environment.
//
//   - every replay matches      → advance (promoting a quarantined finding)
//   - none match + correlated   → harness artifact, done
//   - anything else             → quarantine; retry with backoff up to
//     the cap, then stay quarantined with the evidence
func (g *Gauntlet) stageReplay(f *Finding) {
	matched := 0
	base := len(f.Replays)
	for i := 0; i < g.cfg.Replays; i++ {
		rep := replayOnce(f.Raw.Env, f.Raw.Key, base+i+1, f.Raw.Program)
		f.Replays = append(f.Replays, rep)
		if matches(f.Raw.Key, rep) {
			matched++
		}
	}
	switch {
	case matched == g.cfg.Replays:
		if f.Verdict == Flaky {
			f.Note = fmt.Sprintf("promoted from quarantine: %d/%d replays reproduced after %d earlier round(s)",
				matched, g.cfg.Replays, f.Attempts)
		}
		f.Verdict = Pending
		f.Stage = StageCrossConfig
	case matched == 0 && g.artifactCorrelated(f):
		f.Verdict = HarnessArtifact
		f.Note = "0 replays reproduced; correlated with harness-crash/fault-injection provenance"
		f.Stage = StageDone
	default:
		f.Verdict = Flaky
		f.Attempts++
		if f.Attempts > g.cfg.RetryCap {
			f.Note = fmt.Sprintf("quarantined: %d/%d replays reproduced in final round; retry cap (%d) exhausted",
				matched, g.cfg.Replays, g.cfg.RetryCap)
			f.Stage = StageDone
			return
		}
		f.Note = fmt.Sprintf("quarantined: %d/%d replays reproduced; re-validation round %d/%d pending",
			matched, g.cfg.Replays, f.Attempts, g.cfg.RetryCap)
		g.cfg.Sleep(g.backoff(f.Attempts))
	}
}

// backoff returns the exponential re-validation delay for round n
// (shared schedule in internal/backoff).
func (g *Gauntlet) backoff(n int) time.Duration {
	return backoff.Exp(backoffBase, backoffMax).Delay(n)
}

// artifactCorrelated reports whether a non-reproducing finding traces
// back to the harness itself: its recorded fault came from injected
// faults, or a contained harness crash shares its iteration or program.
func (g *Gauntlet) artifactCorrelated(f *Finding) bool {
	if strings.Contains(f.Raw.Err, "faultinject: injected") {
		return true
	}
	for _, c := range g.crashes {
		if c.Iteration == f.Raw.FoundAt {
			return true
		}
		if c.Program != nil && f.Raw.Program != nil && c.Program.String() == f.Raw.Program.String() {
			return true
		}
	}
	return false
}

// stageCrossConfig replays the finding across every kernel version with
// the sanitizer on and off (stock bug knobs per version) and classifies
// it from the resulting matrix.
func (g *Gauntlet) stageCrossConfig(f *Finding) {
	f.Matrix = f.Matrix[:0]
	for _, v := range kernel.AllVersions {
		for _, san := range []bool{true, false} {
			rep := replayOnce(Env{Version: v, Sanitize: san, Oracle: f.Raw.Env.Oracle}, f.Raw.Key, 0, f.Raw.Program)
			f.Matrix = append(f.Matrix, MatrixCell{
				Version: v, Sanitize: san,
				Reproduced: matches(f.Raw.Key, rep), Bug: rep.Bug,
			})
		}
	}
	g.classify(f)
	f.Stage = StageMinimize
}

// classify derives the finding's class and trigger set from the matrix.
// Attributed verifier-correctness knobs keep their class even when they
// reproduce only under sanitation: indicator-1 bugs *require* the
// sanitizer to be visible, which is the paper's point, not an artifact.
// ClassSanitizerArtifact is reserved for unattributed sanitize-only
// anomalies.
func (g *Gauntlet) classify(f *Finding) {
	versions := map[kernel.Version]bool{}
	sanOn, sanOff := false, false
	for _, cell := range f.Matrix {
		if !cell.Reproduced {
			continue
		}
		versions[cell.Version] = true
		if cell.Sanitize {
			sanOn = true
		} else {
			sanOff = true
		}
	}
	f.TriggerVersions = f.TriggerVersions[:0]
	for _, v := range kernel.AllVersions {
		if versions[v] {
			f.TriggerVersions = append(f.TriggerVersions, v)
		}
	}
	f.SanitizerDependent = sanOn && !sanOff
	switch {
	case f.Raw.Key.ID.IsVerifierCorrectness() || f.Raw.Key.ID == bugs.CVE2022_23222:
		f.Class = ClassVerifierCorrectness
	case f.Raw.Key.ID == 0 && f.SanitizerDependent:
		f.Class = ClassSanitizerArtifact
	case len(f.TriggerVersions) == 0:
		// Reproduces in its discovery environment but on no stock
		// version: the armed knob set was non-standard.
		f.Class = ClassUnknown
	case len(f.TriggerVersions) < len(kernel.AllVersions):
		f.Class = ClassVersionSpecific
	default:
		f.Class = ClassCrossVersion
	}
}

// stageMinimize shrinks the reproducer under the configured budgets,
// retrying watchdog-tripped attempts with backoff and falling back to
// the unminimized program (with a note) when the budget is exhausted or
// the surface is not checkable. Whatever happens here, the finding has
// survived replay and classification: it leaves as Stable.
func (g *Gauntlet) stageMinimize(f *Finding) {
	defer func() {
		f.Stage = StageDone
		f.Verdict = Stable
	}()
	if f.Raw.Program == nil || f.Raw.Key.ID == 0 {
		f.MinimizeNote = "no program-based reproducer; reported unminimized"
		return
	}
	rep := core.NewReproducer(f.Raw.Env.Version, f.Raw.Env.Bugs, f.Raw.Env.Sanitize, f.Raw.Env.Oracle, f.Raw.Key.ID)
	if !rep.Check(f.Raw.Program) {
		// Dispatcher/offload-surface bugs reproduce in replayOnce but
		// not under the plain load-and-run checker Minimize shrinks
		// against; degrade to the unminimized (still replayable) form.
		f.MinimizeNote = "reproducer not checkable on the minimization surface; reported unminimized"
		return
	}
	for attempt := 0; ; attempt++ {
		// The stall/watchdog window for minimization, distinct from the
		// per-round budget inside MinimizeOpts.
		if err := faultinject.FireErr("triage.minimize"); err != nil {
			if attempt >= g.cfg.MinimizeRetries {
				f.MinimizeNote = fmt.Sprintf("minimization budget exhausted after %d attempt(s) (%v); reported unminimized",
					attempt+1, err)
				return
			}
			g.cfg.Sleep(g.backoff(attempt + 1))
			continue
		}
		f.Minimized = core.MinimizeOpts(rep, f.Raw.Program, core.MinimizeOptions{
			MaxRounds: minimizeRounds, RoundBudget: minimizeRoundBudget,
		})
		return
	}
}

// Summary tallies the store by verdict.
type Summary struct {
	Total       int
	Stable      int
	Quarantined int
	Artifacts   int
	Pending     int
	Findings    []*Finding
	// Damaged lists store files rejected as corrupt at open.
	Damaged []string
}

func (g *Gauntlet) summary() *Summary {
	s := &Summary{Findings: g.store.Sorted(), Damaged: g.store.Damaged()}
	for _, f := range s.Findings {
		s.Total++
		switch f.Verdict {
		case Stable:
			s.Stable++
		case Flaky:
			s.Quarantined++
		case HarnessArtifact:
			s.Artifacts++
		default:
			s.Pending++
		}
	}
	return s
}

// Print renders the per-verdict summary table, each stable finding's
// cross-config matrix, and the quarantine evidence.
func (s *Summary) Print(w io.Writer) {
	fmt.Fprintf(w, "finding-validation gauntlet: %d finding(s)\n", s.Total)
	fmt.Fprintf(w, "  %-18s %d\n", "stable:", s.Stable)
	fmt.Fprintf(w, "  %-18s %d\n", "quarantined:", s.Quarantined)
	fmt.Fprintf(w, "  %-18s %d\n", "harness-artifact:", s.Artifacts)
	fmt.Fprintf(w, "  %-18s %d\n", "pending:", s.Pending)
	if len(s.Damaged) > 0 {
		fmt.Fprintf(w, "  %-18s %d (%s)\n", "damaged files:", len(s.Damaged), strings.Join(s.Damaged, ", "))
	}
	for _, f := range s.Findings {
		fmt.Fprintf(w, "\n%s [%s] %s\n", f.Key(), f.Verdict, f.Class)
		fmt.Fprintf(w, "  found at iteration %d on %v (sanitize=%v): %s\n",
			f.Raw.FoundAt, f.Raw.Env.Version, f.Raw.Env.Sanitize, f.Raw.Err)
		if f.Note != "" {
			fmt.Fprintf(w, "  note: %s\n", f.Note)
		}
		switch f.Verdict {
		case Stable:
			for _, cell := range f.Matrix {
				mark := "-"
				if cell.Reproduced {
					mark = "R"
				}
				fmt.Fprintf(w, "  matrix %-8v sanitize=%-5v %s\n", cell.Version, cell.Sanitize, mark)
			}
			if f.SanitizerDependent {
				fmt.Fprintf(w, "  sanitizer-dependent (invisible without the patches)\n")
			}
			if f.Minimized != nil && f.Raw.Program != nil {
				fmt.Fprintf(w, "  reproducer: %d insns -> %d minimized\n",
					len(f.Raw.Program.Insns), len(f.Minimized.Insns))
			} else if f.MinimizeNote != "" {
				fmt.Fprintf(w, "  reproducer: %s\n", f.MinimizeNote)
			}
		case Flaky:
			ok := 0
			for _, r := range f.Replays {
				if matches(f.Raw.Key, r) {
					ok++
				}
			}
			fmt.Fprintf(w, "  evidence: %d/%d replays reproduced across %d round(s)\n",
				ok, len(f.Replays), f.Attempts)
		}
	}
}
