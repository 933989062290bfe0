package coverage

// Local is an unsynchronized per-run coverage recorder. One verification
// (or one campaign iteration) records every hit into its Local without
// touching a lock, then folds the whole batch into the shared Map with a
// single FlushTo — one lock acquisition instead of one per instrumented
// site. A Local is NOT safe for concurrent use; ownership follows the run
// that records into it.
type Local struct {
	t table
}

// NewLocal returns an empty local recorder.
func NewLocal() *Local {
	return &Local{}
}

// Hit records one execution of the given site.
func (l *Local) Hit(s Site) {
	if l == nil {
		return
	}
	l.t.add(s, 1)
}

// HitLoc records one execution of the site named by loc.
func (l *Local) HitLoc(loc string) { l.Hit(SiteOf(loc)) }

// Len returns the number of distinct recorded sites.
func (l *Local) Len() int {
	if l == nil {
		return 0
	}
	return len(l.t.used)
}

// Export returns the recorded (site, count) profile in deterministic
// (sorted-by-site) order without clearing the recorder. Verdict caches
// capture it at the end of a verification so a later hit can replay the
// exact profile with Map.AddSites.
func (l *Local) Export() []SiteCount {
	if l == nil {
		return nil
	}
	return l.t.sortedPairs()
}

// FlushTo folds every recorded hit into m under one lock acquisition and
// clears the recorder for reuse. It returns the number of sites that were
// new to m (the fuzzing "new coverage" feedback signal), exactly as if
// every hit had been recorded on m directly.
func (l *Local) FlushTo(m *Map) int {
	if l == nil || len(l.t.used) == 0 {
		return 0
	}
	fresh := 0
	if m != nil {
		m.mu.Lock()
		for _, i := range l.t.used {
			e := &l.t.slots[i]
			if m.t.add(e.site, e.n) {
				fresh++
			}
		}
		m.mu.Unlock()
	}
	l.t.clear()
	return fresh
}
