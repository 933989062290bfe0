// Package coverage provides kcov-style branch coverage collection for the
// verifier model. Every decision site in the verifier reports a stable site
// identifier; the map records which sites a verification run exercised, and
// campaigns merge per-run maps to track global progress, exactly as the
// paper's Figure 6 / Table 3 experiments do with kcov over the eBPF
// subsystem.
package coverage

import (
	"errors"
	"sort"
	"sync"
)

// Site is a stable identifier for one branch site in the instrumented code.
type Site uint64

// SiteCount is one covered site with its hit count, the unit of
// deterministic coverage replay: a verdict cache stores the exact
// (site, count) profile a verification produced and AddSites replays it
// on a hit, so cached and scratch runs build bit-identical maps.
type SiteCount struct {
	Site  Site
	Count uint64
}

// FNV-1a parameters, inlined so SiteOf never allocates a hash.Hash64.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// SiteOf derives a Site from a static location string such as
// "check_alu:ptr+scalar". It is an allocation-free FNV-1a over the
// location bytes (bit-identical to hash/fnv's New64a), so hot
// instrumentation points may call it per hit, though precomputing the
// Site at package init is cheaper still.
func SiteOf(loc string) Site {
	h := uint64(fnvOffset64)
	for i := 0; i < len(loc); i++ {
		h ^= uint64(loc[i])
		h *= fnvPrime64
	}
	return Site(h)
}

// Map records the set of covered sites. A Map is safe for concurrent use.
type Map struct {
	mu    sync.RWMutex
	sites map[Site]uint64 // hit counts
}

// NewMap returns an empty coverage map.
func NewMap() *Map {
	return &Map{sites: make(map[Site]uint64)}
}

// Hit records one execution of the given site.
func (m *Map) Hit(s Site) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sites[s]++
	m.mu.Unlock()
}

// HitLoc records one execution of the site named by loc.
func (m *Map) HitLoc(loc string) { m.Hit(SiteOf(loc)) }

// Count returns the number of distinct covered sites.
func (m *Map) Count() int {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sites)
}

// Covered reports whether s has been hit at least once.
func (m *Map) Covered(s Site) bool {
	if m == nil {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.sites[s]
	return ok
}

// Hits returns the hit count of s.
func (m *Map) Hits(s Site) uint64 {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sites[s]
}

// Merge adds every site of other into m and returns the number of sites
// that were new to m. Fuzzing engines use the return value as the "new
// coverage" feedback signal.
//
// Merge never holds both maps' locks at once: other is snapshotted under
// its read lock first, then folded into m under m's write lock. Two
// goroutines may therefore merge the same pair of maps in opposite
// directions concurrently without deadlocking. A self-merge is a no-op.
func (m *Map) Merge(other *Map) int {
	if m == nil || other == nil || m == other {
		return 0
	}
	snap := other.snapshotCounts()
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := 0
	for s, n := range snap {
		if _, ok := m.sites[s]; !ok {
			fresh++
		}
		m.sites[s] += n
	}
	return fresh
}

// snapshotCounts copies the site->count map under the read lock.
func (m *Map) snapshotCounts() map[Site]uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	snap := make(map[Site]uint64, len(m.sites))
	for s, n := range m.sites {
		snap[s] = n
	}
	return snap
}

// AddSites folds a recorded (site, count) profile into m under one lock
// acquisition and returns how many sites were new to m — exactly the
// effect of replaying every hit individually. Verdict-cache hits use it
// to reproduce a memoized verification's coverage without re-verifying.
func (m *Map) AddSites(sites []SiteCount) int {
	if m == nil || len(sites) == 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := 0
	for _, sc := range sites {
		if _, ok := m.sites[sc.Site]; !ok {
			fresh++
		}
		m.sites[sc.Site] += sc.Count
	}
	return fresh
}

// Reset clears all recorded coverage.
func (m *Map) Reset() {
	m.mu.Lock()
	m.sites = make(map[Site]uint64)
	m.mu.Unlock()
}

// Snapshot returns the covered sites in deterministic (sorted) order, in
// a slice that is the caller's to keep.
func (m *Map) Snapshot() []Site {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sortedLocked()
}

// sortedLocked returns the covered sites in ascending order; the caller
// holds the lock, read or write.
func (m *Map) sortedLocked() []Site {
	out := make([]Site, 0, len(m.sites))
	for s := range m.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarshalBinary serializes the map as a deterministic (sorted) sequence of
// little-endian site/count pairs, so checkpointed campaigns can persist
// coverage. It implements encoding.BinaryMarshaler, which encoding/gob
// picks up automatically.
func (m *Map) MarshalBinary() ([]byte, error) {
	if m == nil {
		return nil, nil
	}
	// One read lock for the whole walk: taking Snapshot() first and
	// re-locking to read the counts would let a concurrent Hit/Merge land
	// between the two, serializing a site list from one instant with
	// counts from another (a torn snapshot under checkpoint-while-running).
	m.mu.RLock()
	defer m.mu.RUnlock()
	sites := m.sortedLocked()
	out := make([]byte, 0, 8+16*len(sites))
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		out = append(out, b[:]...)
	}
	put(uint64(len(sites)))
	for _, s := range sites {
		put(uint64(s))
		put(m.sites[s])
	}
	return out, nil
}

// UnmarshalBinary restores a map serialized by MarshalBinary, replacing any
// existing contents.
func (m *Map) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		m.mu.Lock()
		m.sites = make(map[Site]uint64)
		m.mu.Unlock()
		return nil
	}
	if len(data) < 8 {
		return errors.New("coverage: truncated serialized map")
	}
	get := func(off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(data[off+i]) << (8 * i)
		}
		return v
	}
	n := int(get(0))
	if len(data) != 8+16*n {
		return errors.New("coverage: serialized map length mismatch")
	}
	sites := make(map[Site]uint64, n)
	for i := 0; i < n; i++ {
		off := 8 + 16*i
		sites[Site(get(off))] = get(off + 8)
	}
	m.mu.Lock()
	m.sites = sites
	m.mu.Unlock()
	return nil
}

// Signature returns a 64-bit FNV-1a digest of the covered-site set, in
// sorted order: equal site sets give equal signatures, whatever their
// counts or insertion order.
func (m *Map) Signature() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h := uint64(fnvOffset64)
	for _, s := range m.sortedLocked() {
		v := uint64(s)
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}
