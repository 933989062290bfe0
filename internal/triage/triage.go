// Package triage is the finding-validation gauntlet: the pipeline every
// raw campaign finding passes before it may be reported as a bug.
//
// The paper only reports bugs with *stable reproducers* (§6.1) and
// triages each one by hand — replaying it, checking which kernel
// versions it affects, and shrinking the reproducer (§6.5). This package
// automates that discipline and adds the operational hardening a
// multi-day campaign needs: deterministic replay on pristine kernels,
// cross-version × sanitizer classification, quarantine (with evidence)
// for findings that do not reproduce on every replay, correlation
// against harness-crash provenance so our own bugs are never reported
// as kernel bugs, and a crash-consistent on-disk store so a killed
// process resumes triage mid-gauntlet instead of redoing or — worse —
// dropping it.
package triage

import (
	"fmt"
	"strings"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// Verdict is a finding's validation outcome.
type Verdict int

// Verdicts.
const (
	// Pending: the gauntlet has not finished with this finding.
	Pending Verdict = iota
	// Stable: deterministically replayed, classified, and (where
	// possible) minimized — reportable.
	Stable
	// Flaky: did not reproduce on every replay. Quarantined with its
	// replay evidence, never silently dropped. It is not replayed again:
	// a replay runs on a pristine kernel whose time and randomness
	// helpers are counters, so another round would give the same result.
	Flaky
	// HarnessArtifact: correlated with a contained harness crash or
	// injected fault — our bug, not the kernel's.
	HarnessArtifact
)

func (v Verdict) String() string {
	switch v {
	case Pending:
		return "pending"
	case Stable:
		return "stable"
	case Flaky:
		return "quarantined"
	case HarnessArtifact:
		return "harness-artifact"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Stage is a finding's position in the gauntlet. Persisted after every
// transition, so a crashed process resumes exactly where it stopped.
type Stage int

// Stages, in order.
const (
	StageReplay Stage = iota
	StageCrossConfig
	StageMinimize
	StageDone
)

func (s Stage) String() string {
	switch s {
	case StageReplay:
		return "replay"
	case StageCrossConfig:
		return "cross-config"
	case StageMinimize:
		return "minimize"
	case StageDone:
		return "done"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Class is the cross-config classification of a stable finding.
type Class int

// Classes.
const (
	ClassUnknown Class = iota
	// ClassVerifierCorrectness: attributed to a verifier correctness
	// knob — the paper's headline bug class.
	ClassVerifierCorrectness
	// ClassSanitizerArtifact: an unattributed anomaly that only fires
	// with the sanitizer patches applied — plausibly instrumentation at
	// fault rather than the kernel.
	ClassSanitizerArtifact
	// ClassVersionSpecific: reproduces on a strict subset of versions.
	ClassVersionSpecific
	// ClassCrossVersion: reproduces on every kernel version.
	ClassCrossVersion
)

func (c Class) String() string {
	switch c {
	case ClassUnknown:
		return "unknown"
	case ClassVerifierCorrectness:
		return "verifier-correctness"
	case ClassSanitizerArtifact:
		return "sanitizer-artifact"
	case ClassVersionSpecific:
		return "version-specific"
	case ClassCrossVersion:
		return "cross-version"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Env is the kernel environment a finding was discovered in (and is
// replayed in). A nil Bugs set selects the version's default knobs.
type Env struct {
	Version  kernel.Version
	Sanitize bool
	// Oracle arms the abstract-state soundness checker on replay kernels.
	// IndicatorSoundness findings only reproduce with it on, like
	// indicator-1 findings only reproduce with Sanitize.
	Oracle bool
	Bugs   bugs.Set
}

// RawFinding is one deduplicated campaign finding entering the gauntlet:
// the manifestation signature plus everything needed to replay it.
type RawFinding struct {
	// Key is the manifestation signature (bug ID + oracle signature).
	// ID 0 marks an unattributed anomaly sample.
	Key     core.BugKey
	FoundAt int
	Err     string
	// Program is the triggering program; nil for findings surfaced by
	// the syscall layer alone (map dumps).
	Program *isa.Program
	Env     Env
}

// Report is the outcome of one replay attempt — the quarantine evidence
// kept for flaky findings.
type Report struct {
	// Attempt numbers the replay (1-based); 0 for cross-config matrix
	// probes.
	Attempt    int
	Reproduced bool
	// Bug, Kind, Indicator describe the anomaly the replay actually
	// produced (which may differ from the expected signature).
	Bug       bugs.ID
	Kind      string
	Indicator kernel.Indicator
	Err       string
}

// MatrixCell is one cross-config replay outcome.
type MatrixCell struct {
	Version    kernel.Version
	Sanitize   bool
	Reproduced bool
	Bug        bugs.ID
}

// Finding is a raw finding plus everything the gauntlet has learned
// about it. It is the unit of persistence: the store writes it after
// every stage transition.
type Finding struct {
	Raw     RawFinding
	Stage   Stage
	Verdict Verdict
	Class   Class
	// Replays is the replay evidence.
	Replays []Report
	// Matrix is the cross-config classification grid.
	Matrix []MatrixCell
	// SanitizerDependent: reproduces only with sanitation enabled (true
	// for indicator-1 bugs by construction — their invalid accesses are
	// silent without the patches).
	SanitizerDependent bool
	// TriggerVersions are the stock kernel versions that reproduce it.
	TriggerVersions []kernel.Version
	// Minimized is the shrunken stable reproducer, when minimization
	// applied and succeeded.
	Minimized *isa.Program
	// MinimizeNote explains a minimization fallback (no program, or a
	// surface minimization cannot check).
	MinimizeNote string
	// Note carries verdict provenance (quarantine evidence summary,
	// artifact correlation).
	Note string
}

// Key returns the finding's stable, filesystem-safe identity — the
// manifestation signature slugged for use as a store filename.
func (f *Finding) Key() string {
	return fmt.Sprintf("%02d-i%d-%s", int(f.Raw.Key.ID), int(f.Raw.Key.Indicator), slug(f.Raw.Key.Kind))
}

// slug maps an oracle kind ("kasan:oob") to a filename-safe token.
func slug(s string) string {
	if s == "" {
		return "none"
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// matches reports whether a replay reproduced the expected
// manifestation: same attributed bug under the same oracle signature.
func matches(key core.BugKey, rep Report) bool {
	return rep.Reproduced && rep.Bug == key.ID && rep.Kind == key.Kind && rep.Indicator == key.Indicator
}
