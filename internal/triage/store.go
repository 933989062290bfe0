package triage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// Store is the crash-consistent finding store: one checkpoint-enveloped
// file per finding, rewritten (atomically, via the checkpoint package's
// temp→fsync→rename protocol) after every gauntlet stage transition.
// A crash at any point leaves each finding either at its previous stage
// or its new one, never torn — so a resumed process continues the
// gauntlet mid-finding instead of redoing or dropping work.
//
// Beside the findings the store keeps the campaign's harness-crash
// samples, which the gauntlet correlates non-reproducing findings with;
// they are written to one more file, only when there are any. So every
// gauntlet over the store correlates alike, however the findings got
// there.
//
// An empty dir keeps the store memory-only (tests, one-shot runs).
type Store struct {
	dir      string
	findings map[string]*Finding
	crashes  []core.HarnessCrash
	damaged  []string
}

// filePrefix/fileSuffix frame finding filenames; the suffix filter also
// keeps Open from reading the checkpoint package's ".tmp" staging files
// a crash may have left behind. crashesFile holds the harness-crash
// samples.
const (
	filePrefix  = "finding-"
	fileSuffix  = ".ckpt"
	crashesFile = "harness-crashes.ckpt"
)

// Open loads every finding persisted under dir (creating it if needed).
// Corrupt or torn files are recorded as damaged and skipped — a damaged
// finding must surface in reports, not abort the campaign's triage.
func Open(dir string) (*Store, error) {
	s := &Store{findings: make(map[string]*Finding)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("triage: store: %w", err)
	}
	s.dir = dir
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("triage: store: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		var f Finding
		if err := checkpoint.Load(filepath.Join(dir, name), &f); err != nil {
			if errors.Is(err, checkpoint.ErrCorrupt) {
				s.damaged = append(s.damaged, name)
				continue
			}
			return nil, fmt.Errorf("triage: store: %w", err)
		}
		s.findings[f.Key()] = &f
	}
	if path := filepath.Join(dir, crashesFile); checkpoint.Exists(path) {
		if err := checkpoint.Load(path, &s.crashes); err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				return nil, fmt.Errorf("triage: store: %w", err)
			}
			s.damaged = append(s.damaged, crashesFile)
		}
	}
	sort.Strings(s.damaged)
	return s, nil
}

// Dir returns the backing directory ("" when memory-only).
func (s *Store) Dir() string { return s.dir }

// Put persists f (disk first, then memory — a failed write leaves the
// in-memory view consistent with what a restarted process would load).
func (s *Store) Put(f *Finding) error {
	if s.dir != "" {
		path := filepath.Join(s.dir, filePrefix+f.Key()+fileSuffix)
		if err := checkpoint.Save(path, f); err != nil {
			return fmt.Errorf("triage: store %s: %w", f.Key(), err)
		}
	}
	s.findings[f.Key()] = f
	return nil
}

// Get returns the finding stored under key, or nil.
func (s *Store) Get(key string) *Finding { return s.findings[key] }

// Has reports whether a finding is stored under key.
func (s *Store) Has(key string) bool { return s.findings[key] != nil }

// Len returns the number of stored findings.
func (s *Store) Len() int { return len(s.findings) }

// Sorted returns the findings in stable (key) order, so gauntlet runs
// process them deterministically.
func (s *Store) Sorted() []*Finding {
	keys := make([]string, 0, len(s.findings))
	for k := range s.findings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Finding, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.findings[k])
	}
	return out
}

// AddCrashes records harness-crash samples and persists them all. A
// sample already recorded at the same shard, iteration and panic value
// is skipped: a resumed campaign ingests its statistics again. With
// nothing new it writes nothing.
func (s *Store) AddCrashes(cs []core.HarnessCrash) error {
	n := len(s.crashes)
	for _, c := range cs {
		if !slices.ContainsFunc(s.crashes, func(d core.HarnessCrash) bool {
			return d.Shard == c.Shard && d.Iteration == c.Iteration && d.Value == c.Value
		}) {
			s.crashes = append(s.crashes, c)
		}
	}
	if len(s.crashes) == n || s.dir == "" {
		return nil
	}
	if err := checkpoint.Save(filepath.Join(s.dir, crashesFile), s.crashes); err != nil {
		s.crashes = s.crashes[:n]
		return fmt.Errorf("triage: store harness crashes: %w", err)
	}
	return nil
}

// Crashes returns the recorded harness-crash samples.
func (s *Store) Crashes() []core.HarnessCrash { return s.crashes }

// Damaged returns the filenames Open rejected as corrupt.
func (s *Store) Damaged() []string { return append([]string(nil), s.damaged...) }
