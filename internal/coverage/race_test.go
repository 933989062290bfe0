package coverage

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSignatureMergeFlush hammers the map's sorted readers
// (Signature, MarshalBinary, Snapshot) and its writers (Merge, FlushTo)
// from many goroutines. Run with -race: the readers share the read lock,
// so none of them may write the map, and every writer must see a
// consistent map.
func TestConcurrentSignatureMergeFlush(t *testing.T) {
	m := NewMap()
	for i := 0; i < 64; i++ {
		m.HitLoc(fmt.Sprintf("seed:%d", i))
	}

	const goroutines = 8
	const rounds = 200
	var wg sync.WaitGroup

	// Readers: Signature and MarshalBinary both sort the site set.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_ = m.Signature()
				if _, err := m.MarshalBinary(); err != nil {
					t.Errorf("MarshalBinary: %v", err)
					return
				}
				_ = m.Count()
				_ = m.Snapshot()
			}
		}()
	}

	// Writers: Merge inserts sites under the write lock.
	for g := 0; g < goroutines/2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				other := NewMap()
				other.HitLoc(fmt.Sprintf("merge:%d:%d", g, i))
				m.Merge(other)
			}
		}(g)
	}

	// Local flushes: the verifier hot path's per-program buffers draining
	// into the shared map.
	for g := 0; g < goroutines/2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l := NewLocal()
				l.HitLoc(fmt.Sprintf("flush:%d:%d", g, i))
				l.HitLoc("seed:0")
				l.FlushTo(m)
			}
		}(g)
	}

	wg.Wait()

	// The map must have absorbed every distinct site exactly once.
	want := 64 + goroutines/2*rounds*2 // seeds + merge:* + flush:*
	if got := m.Count(); got != want {
		t.Errorf("Count() = %d, want %d", got, want)
	}
	// The signature over the final state must be stable.
	if a, b := m.Signature(), m.Signature(); a != b {
		t.Errorf("Signature unstable: %#x vs %#x", a, b)
	}
}
