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
	return Site(fold(fnvOffset64, loc))
}

// SiteOfParts is SiteOf of the concatenated parts, without building the
// concatenation: SiteOfParts("call:", name) == SiteOf("call:" + name).
// It names a dynamic site such as "mem:ctx_field:<type>:<field>" from
// its pieces and allocates nothing.
func SiteOfParts(parts ...string) Site {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		h = fold(h, p)
	}
	return Site(h)
}

// fold continues an FNV-1a hash h over the bytes of s.
func fold(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Map records the set of covered sites. A Map is safe for concurrent use.
type Map struct {
	mu sync.RWMutex
	t  table
}

// NewMap returns an empty coverage map.
func NewMap() *Map {
	return &Map{}
}

// Hit records that the given site was reached.
func (m *Map) Hit(s Site) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.t.add(s)
	m.mu.Unlock()
}

// HitLoc records that the site named by loc was reached.
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
	return m.t.has(s)
}

// Merge adds every site of other into m and returns the number of sites
// that were new to m. Fuzzing engines use the return value as the "new
// coverage" feedback signal.
//
// Merge never holds both maps' locks at once: other's sites are copied
// under its read lock first, then folded into m under m's write lock. Two
// goroutines may therefore merge the same pair of maps in opposite
// directions concurrently without deadlocking. A self-merge is a no-op.
func (m *Map) Merge(other *Map) int {
	if m == nil || other == nil || m == other {
		return 0
	}
	other.mu.RLock()
	snap := other.t.appendSites(nil)
	other.mu.RUnlock()
	return m.AddSites(snap)
}

// AddSites adds a recorded site set to m under one lock acquisition and
// returns how many sites were new to m — exactly the effect of replaying
// every hit individually. Verdict-cache hits use it to reproduce a
// memoized verification's coverage without re-verifying.
func (m *Map) AddSites(sites []Site) int {
	if m == nil || len(sites) == 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := 0
	for _, s := range sites {
		if m.t.add(s) {
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

// MarshalBinary serializes the map as a little-endian pair count followed
// by one (site, count) pair per site in ascending site order, so
// checkpointed campaigns can persist coverage. Every count is 1: the map
// keeps no counts, and the layout is the one earlier versions wrote with
// hit counts, so either side reads the other's bytes. It implements
// encoding.BinaryMarshaler, which encoding/gob picks up automatically.
func (m *Map) MarshalBinary() ([]byte, error) {
	if m == nil {
		return nil, nil
	}
	// One read lock for the whole walk, so the serialized sites are from
	// one instant even while other goroutines hit and merge
	// (checkpoint-while-running).
	m.mu.RLock()
	sites := m.t.sortedSites()
	m.mu.RUnlock()
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
		put(1)
	}
	return out, nil
}

// UnmarshalBinary restores a map serialized by MarshalBinary, replacing any
// existing contents. Each pair's count word is ignored, so a site recorded
// with count 0 is covered. Malformed input is an error and leaves m
// unchanged: the pair count is checked against the data's length before
// anything is allocated or read, so a hostile count cannot index past the
// buffer.
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
			t.add(Site(get(off)))
		}
	}
	m.mu.Lock()
	m.t = t
	m.mu.Unlock()
	return nil
}

// Signature returns a 64-bit FNV-1a digest of the covered-site set, in
// sorted order: equal site sets give equal signatures, whatever their
// insertion order.
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
