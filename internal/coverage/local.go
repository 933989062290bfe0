package coverage

import "slices"

// Local is an unsynchronized per-run coverage recorder. One verification
// (or one campaign iteration) records every hit into its Local without
// touching a lock, then folds the whole batch into the shared Map with a
// single FlushTo — one lock acquisition instead of one per instrumented
// site. A Local is NOT safe for concurrent use; ownership follows the run
// that records into it.
type Local struct {
	sites map[Site]uint64
}

// NewLocal returns an empty local recorder.
func NewLocal() *Local {
	return &Local{sites: make(map[Site]uint64, 128)}
}

// Hit records one execution of the given site.
func (l *Local) Hit(s Site) {
	if l == nil {
		return
	}
	l.sites[s]++
}

// HitLoc records one execution of the site named by loc.
func (l *Local) HitLoc(loc string) { l.Hit(SiteOf(loc)) }

// Len returns the number of distinct recorded sites.
func (l *Local) Len() int {
	if l == nil {
		return 0
	}
	return len(l.sites)
}

// Export returns the recorded (site, count) profile in deterministic
// (sorted-by-site) order without clearing the recorder. Verdict caches
// capture it at the end of a verification so a later hit can replay the
// exact profile with Map.AddSites.
func (l *Local) Export() []SiteCount {
	if l == nil || len(l.sites) == 0 {
		return nil
	}
	out := make([]SiteCount, 0, len(l.sites))
	for s, n := range l.sites {
		out = append(out, SiteCount{Site: s, Count: n})
	}
	// The generic sort avoids sort.Slice's reflection swapper — Export
	// runs once per cache-missing verification.
	slices.SortFunc(out, func(a, b SiteCount) int {
		switch {
		case a.Site < b.Site:
			return -1
		case a.Site > b.Site:
			return 1
		}
		return 0
	})
	return out
}

// FlushTo folds every recorded hit into m under one lock acquisition and
// clears the recorder for reuse. It returns the number of sites that were
// new to m (the fuzzing "new coverage" feedback signal), exactly as if
// every hit had been recorded on m directly.
func (l *Local) FlushTo(m *Map) int {
	if l == nil || len(l.sites) == 0 {
		return 0
	}
	fresh := 0
	if m != nil {
		m.mu.Lock()
		for s, n := range l.sites {
			if _, ok := m.sites[s]; !ok {
				fresh++
			}
			m.sites[s] += n
		}
		if fresh > 0 {
			m.invalidateLocked()
		}
		m.mu.Unlock()
	}
	for s := range l.sites {
		delete(l.sites, s)
	}
	return fresh
}
