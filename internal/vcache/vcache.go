// Package vcache implements the campaign-side verdict cache behind
// verifier.Cache: a bounded FIFO store of memoized whole-program verdicts
// and linear-prefix boundary snapshots for one campaign, whose single
// goroutine keeps the hit and miss counts deterministic.
//
// Collision safety is inherited from the verifier contract: the fingerprint
// is only the index, every entry carries canonical bytes, and lookups
// compare them exactly — a collision is a miss, never a wrong verdict.
package vcache

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/verifier"
)

// DefaultCapacity bounds entries (verdicts and prefixes separately) when
// NewStore is given no explicit capacity. At a few hundred bytes per
// verdict this keeps the steady-state cache in the tens of megabytes.
const DefaultCapacity = 1 << 16

// Counters is a point-in-time snapshot of cache effectiveness counters.
// Campaigns pull start/end deltas into core.Stats.
type Counters struct {
	Hits          int64
	Misses        int64
	PrefixHits    int64
	PrefixMisses  int64
	InsertedBytes int64
}

// Store is a bounded FIFO verdict cache. It is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	capacity int
	entries  map[uint64]*verifier.CachedVerdict
	order    []uint64
	prefixes map[uint64]*verifier.PrefixSnapshot
	porder   []uint64
	// seen is the prefix-recurrence filter behind NotePrefix: fingerprints
	// sighted at least once. Bounded like the entry tables; when full it is
	// reset wholesale (generation clearing), which only delays the second
	// sight of a prefix — a missed capture, never a wrong verdict.
	seen map[uint64]struct{}

	hits          atomic.Int64
	misses        atomic.Int64
	prefixHits    atomic.Int64
	prefixMisses  atomic.Int64
	insertedBytes atomic.Int64
}

// NewStore returns an empty store holding at most capacity verdicts (and
// as many prefix snapshots); capacity <= 0 selects DefaultCapacity.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		entries:  make(map[uint64]*verifier.CachedVerdict),
		prefixes: make(map[uint64]*verifier.PrefixSnapshot),
		seen:     make(map[uint64]struct{}),
	}
}

var _ verifier.Cache = (*Store)(nil)

// Lookup implements verifier.Cache.
func (s *Store) Lookup(fp uint64, p *isa.Program) *verifier.CachedVerdict {
	v := s.lookupNoCount(fp, p)
	if v != nil {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v
}

func (s *Store) lookupNoCount(fp uint64, p *isa.Program) *verifier.CachedVerdict {
	s.mu.RLock()
	v := s.entries[fp]
	s.mu.RUnlock()
	if v != nil && verifier.MatchCanonical(v.Prog, p) {
		return v
	}
	return nil
}

// Insert implements verifier.Cache. The first entry for a fingerprint
// wins; with exact canonical-byte keying a duplicate insert carries an
// identical verdict, so keeping the incumbent preserves FIFO age.
func (s *Store) Insert(fp uint64, v *verifier.CachedVerdict) {
	s.mu.Lock()
	s.insertLocked(fp, v)
	s.mu.Unlock()
}

func (s *Store) insertLocked(fp uint64, v *verifier.CachedVerdict) {
	if _, ok := s.entries[fp]; ok {
		return
	}
	if len(s.order) >= s.capacity {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, evict)
	}
	s.entries[fp] = v
	s.order = append(s.order, fp)
	s.insertedBytes.Add(int64(v.EstimateBytes()))
}

// LookupPrefix implements verifier.Cache.
func (s *Store) LookupPrefix(fp uint64, canon []byte) *verifier.PrefixSnapshot {
	p := s.lookupPrefixNoCount(fp, canon)
	if p != nil {
		s.prefixHits.Add(1)
	} else {
		s.prefixMisses.Add(1)
	}
	return p
}

func (s *Store) lookupPrefixNoCount(fp uint64, canon []byte) *verifier.PrefixSnapshot {
	s.mu.RLock()
	p := s.prefixes[fp]
	s.mu.RUnlock()
	if p != nil && bytes.Equal(p.Canon, canon) {
		return p
	}
	return nil
}

// InsertPrefix implements verifier.Cache.
func (s *Store) InsertPrefix(fp uint64, p *verifier.PrefixSnapshot) {
	s.mu.Lock()
	s.insertPrefixLocked(fp, p)
	s.mu.Unlock()
}

func (s *Store) insertPrefixLocked(fp uint64, p *verifier.PrefixSnapshot) {
	if _, ok := s.prefixes[fp]; ok {
		return
	}
	if len(s.porder) >= s.capacity {
		evict := s.porder[0]
		s.porder = s.porder[1:]
		delete(s.prefixes, evict)
	}
	s.prefixes[fp] = p
	s.porder = append(s.porder, fp)
	s.insertedBytes.Add(int64(p.EstimateBytes()))
}

// NotePrefix implements verifier.Cache: it reports whether fp was sighted
// before, recording the sighting either way.
func (s *Store) NotePrefix(fp uint64) bool {
	s.mu.Lock()
	seen := s.notePrefixLocked(fp)
	s.mu.Unlock()
	return seen
}

func (s *Store) notePrefixLocked(fp uint64) bool {
	if _, ok := s.seen[fp]; ok {
		return true
	}
	// The filter is 8 bytes per fingerprint; 4x the entry capacity keeps
	// it a rounding error next to the snapshots it gates. Overflow resets
	// the whole generation.
	if len(s.seen) >= s.capacity*4 {
		s.seen = make(map[uint64]struct{}, s.capacity)
	}
	s.seen[fp] = struct{}{}
	return false
}

// Len returns the number of cached verdicts.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// CounterSnapshot returns the store's effectiveness counters.
func (s *Store) CounterSnapshot() Counters {
	return Counters{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		PrefixHits:    s.prefixHits.Load(),
		PrefixMisses:  s.prefixMisses.Load(),
		InsertedBytes: s.insertedBytes.Load(),
	}
}
