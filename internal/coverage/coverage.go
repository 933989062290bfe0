// Package coverage provides kcov-style branch coverage collection for the
// verifier model. Every decision site in the verifier reports a stable site
// identifier; the map records which sites a verification run exercised, and
// campaigns merge per-run maps to track global progress, exactly as the
// paper's Figure 6 / Table 3 experiments do with kcov over the eBPF
// subsystem.
package coverage

import (
	"errors"
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
	mu sync.RWMutex
	t  table // hit counts
}

// NewMap returns an empty coverage map.
func NewMap() *Map {
	return &Map{}
}

// Hit records one execution of the given site.
func (m *Map) Hit(s Site) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.t.add(s, 1)
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
	return len(m.t.used)
}

// Covered reports whether s has been hit at least once.
func (m *Map) Covered(s Site) bool {
	if m == nil {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.t.get(s)
	return ok
}

// Hits returns the hit count of s.
func (m *Map) Hits(s Site) uint64 {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, _ := m.t.get(s)
	return n
}

// Merge adds every site of other into m and returns the number of sites
// that were new to m. Fuzzing engines use the return value as the "new
// coverage" feedback signal.
//
// Merge never holds both maps' locks at once: other's pairs are copied
// under its read lock first, then folded into m under m's write lock. Two
// goroutines may therefore merge the same pair of maps in opposite
// directions concurrently without deadlocking. A self-merge is a no-op.
func (m *Map) Merge(other *Map) int {
	if m == nil || other == nil || m == other {
		return 0
	}
	other.mu.RLock()
	snap := other.t.appendPairs(nil)
	other.mu.RUnlock()
	return m.AddSites(snap)
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
		if m.t.add(sc.Site, sc.Count) {
			fresh++
		}
	}
	return fresh
}

// Reset clears all recorded coverage.
func (m *Map) Reset() {
	m.mu.Lock()
	m.t.clear()
	m.mu.Unlock()
}

// Snapshot returns the covered sites in deterministic (sorted) order, in
// a slice that is the caller's to keep.
func (m *Map) Snapshot() []Site {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.t.sortedSites()
}

// MarshalBinary serializes the map as a deterministic (sorted) sequence of
// little-endian site/count pairs, so checkpointed campaigns can persist
// coverage. It implements encoding.BinaryMarshaler, which encoding/gob
// picks up automatically.
func (m *Map) MarshalBinary() ([]byte, error) {
	if m == nil {
		return nil, nil
	}
	// One read lock for the whole walk, so the serialized sites and
	// counts are from one instant even while other goroutines hit and
	// merge (checkpoint-while-running).
	m.mu.RLock()
	pairs := m.t.sortedPairs()
	m.mu.RUnlock()
	out := make([]byte, 0, 8+16*len(pairs))
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		out = append(out, b[:]...)
	}
	put(uint64(len(pairs)))
	for _, p := range pairs {
		put(uint64(p.Site))
		put(p.Count)
	}
	return out, nil
}

// UnmarshalBinary restores a map serialized by MarshalBinary, replacing any
// existing contents. Malformed input is an error and leaves m unchanged:
// the pair count is checked against the data's length before anything is
// allocated or read, so a hostile count cannot index past the buffer.
func (m *Map) UnmarshalBinary(data []byte) error {
	var t table
	if len(data) > 0 {
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
		// Compared as uint64: a count near 2^60 would wrap 16*n back
		// to the data's length in int arithmetic.
		n := get(0)
		if (len(data)-8)%16 != 0 || n != uint64(len(data)-8)/16 {
			return errors.New("coverage: serialized map length mismatch")
		}
		for off := 8; off < len(data); off += 16 {
			t.set(Site(get(off)), get(off+8))
		}
	}
	m.mu.Lock()
	m.t = t
	m.mu.Unlock()
	return nil
}

// Signature returns a 64-bit FNV-1a digest of the covered-site set, in
// sorted order: equal site sets give equal signatures, whatever their
// counts or insertion order.
func (m *Map) Signature() uint64 {
	m.mu.RLock()
	sites := m.t.sortedSites()
	m.mu.RUnlock()
	h := uint64(fnvOffset64)
	for _, s := range sites {
		v := uint64(s)
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}
