// Package vcache implements the campaign-side verdict cache behind
// verifier.Cache: a bounded FIFO store of memoized whole-program verdicts
// for one campaign, whose single goroutine keeps the hit and miss counts
// deterministic.
//
// Collision safety is inherited from the verifier contract: the fingerprint
// is only the index, every entry carries canonical bytes, and lookups
// compare them exactly — a collision is a miss, never a wrong verdict.
package vcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/verifier"
)

// DefaultCapacity bounds the verdict entries when NewStore is given no
// explicit capacity. At a few hundred bytes per verdict this keeps the
// steady-state cache in the tens of megabytes.
const DefaultCapacity = 1 << 16

// Counters is a point-in-time snapshot of cache effectiveness counters.
// Campaigns pull start/end deltas into core.Stats.
type Counters struct {
	Hits          int64
	Misses        int64
	InsertedBytes int64
}

// Store is a bounded FIFO verdict cache. It is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	capacity int
	entries  map[uint64]*verifier.CachedVerdict
	order    []uint64

	hits          atomic.Int64
	misses        atomic.Int64
	insertedBytes atomic.Int64
}

// NewStore returns an empty store holding at most capacity verdicts;
// capacity <= 0 selects DefaultCapacity.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		entries:  make(map[uint64]*verifier.CachedVerdict),
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

// LookupPrefix always misses.
//
// Deprecated: the trace-prefix snapshot layer is gone; Verify never calls
// this, and it returns nil.
func (s *Store) LookupPrefix(fp uint64, canon []byte) *verifier.PrefixSnapshot { return nil }

// InsertPrefix does nothing.
//
// Deprecated: the trace-prefix snapshot layer is gone; Verify never calls
// this.
func (s *Store) InsertPrefix(fp uint64, p *verifier.PrefixSnapshot) {}

// NotePrefix reports every prefix as unseen.
//
// Deprecated: the trace-prefix snapshot layer is gone; Verify never calls
// this, and it returns false.
func (s *Store) NotePrefix(fp uint64) bool { return false }

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
		InsertedBytes: s.insertedBytes.Load(),
	}
}
