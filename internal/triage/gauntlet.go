package triage

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kernel"
)

// Config is the gauntlet's configuration. It has no fields: every bound
// is a constant below. It stays so callers keep building gauntlets with
// New(Config{}, store).
type Config struct{}

// Fixed gauntlet bounds.
const (
	// replays is the number of deterministic replays a finding gets in
	// its discovery environment; all must reproduce the exact signature
	// for it to advance. The harness is deterministic, so a finding that
	// misses one is quarantined at once rather than replayed again.
	replays = 5
	// minimizeRounds and minimizeRoundBudget bound the minimization
	// stage; its total wall clock is core's default budget (see
	// core.MinimizeOptions).
	minimizeRounds      = 4
	minimizeRoundBudget = 2 * time.Second
)

// Gauntlet drives findings through the validation stages, persisting
// after every transition.
type Gauntlet struct {
	store *Store
}

// New builds a gauntlet over the given store.
func New(_ Config, store *Store) *Gauntlet {
	return &Gauntlet{store: store}
}

// Ingest converts a campaign's deduplicated bug manifestations (plus its
// unattributed anomaly samples) into raw findings and stores them at the
// first stage. Findings already in the store — a resumed run — keep
// their recorded stage and evidence. Harness-crash samples go into the
// store as correlation provenance. Returns how many findings were added.
func (g *Gauntlet) Ingest(st *core.Stats, env Env) (int, error) {
	if st == nil {
		return 0, nil
	}
	if err := g.store.AddCrashes(st.HarnessCrashes); err != nil {
		return 0, err
	}
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

// stageReplay replays the finding deterministically in its discovery
// environment, on one replay kernel that is pristine for every replay:
//
//   - every replay matches      → advance
//   - none match + correlated   → harness artifact, done
//   - anything else             → quarantined with the evidence, done
func (g *Gauntlet) stageReplay(f *Finding) {
	matched := 0
	rk := replayKernel(f.Raw.Env)
	for i := 0; i < replays; i++ {
		rep := replayOnce(rk, f.Raw.Key, i+1, f.Raw.Program)
		f.Replays = append(f.Replays, rep)
		if matches(f.Raw.Key, rep) {
			matched++
		}
	}
	switch {
	case matched == replays:
		f.Stage = StageCrossConfig
	case matched == 0 && g.artifactCorrelated(f):
		f.Verdict = HarnessArtifact
		f.Note = "0 replays reproduced; correlated with harness-crash/fault-injection provenance"
		f.Stage = StageDone
	default:
		f.Verdict = Flaky
		f.Note = fmt.Sprintf("quarantined: %d/%d replays reproduced", matched, replays)
		f.Stage = StageDone
	}
}

// artifactCorrelated reports whether a non-reproducing finding traces
// back to the harness itself: its recorded fault came from injected
// faults, or a contained harness crash the store holds shares its
// iteration or program.
func (g *Gauntlet) artifactCorrelated(f *Finding) bool {
	if strings.Contains(f.Raw.Err, "faultinject: injected") {
		return true
	}
	for _, c := range g.store.Crashes() {
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
			env := Env{Version: v, Sanitize: san, Oracle: f.Raw.Env.Oracle}
			rep := replayOnce(replayKernel(env), f.Raw.Key, 0, f.Raw.Program)
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

// stageMinimize shrinks the reproducer under core.MinimizeOpts' round
// and wall-clock budgets, falling back to the unminimized program (with
// a note) when the surface is not checkable. Whatever happens here, the
// finding has survived replay and classification: it leaves as Stable.
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
	f.Minimized = core.MinimizeOpts(rep, f.Raw.Program, core.MinimizeOptions{
		MaxRounds: minimizeRounds, RoundBudget: minimizeRoundBudget,
	})
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
			fmt.Fprintf(w, "  evidence: %d/%d replays reproduced\n", ok, len(f.Replays))
		}
	}
}
