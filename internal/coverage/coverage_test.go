package coverage

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestHitAndCount(t *testing.T) {
	m := NewMap()
	if m.Count() != 0 {
		t.Error("fresh map not empty")
	}
	s := SiteOf("check_alu:ptr+scalar")
	m.Hit(s)
	m.Hit(s)
	m.HitLoc("check_mem:stack")
	if got := m.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if m.Hits(s) != 2 {
		t.Errorf("Hits = %d, want 2", m.Hits(s))
	}
	if !m.Covered(s) || m.Covered(SiteOf("never")) {
		t.Error("Covered wrong")
	}
}

func TestSiteOfStable(t *testing.T) {
	if SiteOf("x") != SiteOf("x") {
		t.Error("SiteOf not deterministic")
	}
	if SiteOf("x") == SiteOf("y") {
		t.Error("SiteOf collided on trivial inputs")
	}
}

func TestMergeReturnsFreshCount(t *testing.T) {
	a, b := NewMap(), NewMap()
	a.HitLoc("s1")
	a.HitLoc("s2")
	b.HitLoc("s2")
	b.HitLoc("s3")
	b.HitLoc("s4")
	if fresh := a.Merge(b); fresh != 2 {
		t.Errorf("Merge fresh = %d, want 2", fresh)
	}
	if a.Count() != 4 {
		t.Errorf("merged Count = %d, want 4", a.Count())
	}
	// Second merge adds nothing.
	if fresh := a.Merge(b); fresh != 0 {
		t.Errorf("re-merge fresh = %d, want 0", fresh)
	}
}

func TestSignatureAndSnapshot(t *testing.T) {
	a, b := NewMap(), NewMap()
	for _, loc := range []string{"x", "y", "z"} {
		a.HitLoc(loc)
	}
	for _, loc := range []string{"z", "x", "y"} { // different order
		b.HitLoc(loc)
	}
	if a.Signature() != b.Signature() {
		t.Error("Signature depends on insertion order")
	}
	b.HitLoc("w")
	if a.Signature() == b.Signature() {
		t.Error("Signature did not change with new site")
	}
	snap := a.Snapshot()
	if len(snap) != 3 {
		t.Errorf("Snapshot len = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			t.Error("Snapshot not sorted")
		}
	}
}

func TestReset(t *testing.T) {
	m := NewMap()
	m.HitLoc("a")
	m.Reset()
	if m.Count() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestNilMapSafe(t *testing.T) {
	var m *Map
	m.Hit(1) // must not panic
	if m.Count() != 0 || m.Covered(1) || m.Hits(1) != 0 {
		t.Error("nil map misbehaved")
	}
	real := NewMap()
	if real.Merge(m) != 0 || m.Merge(real) != 0 {
		t.Error("nil merge misbehaved")
	}
}

func TestConcurrentHits(t *testing.T) {
	m := NewMap()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.HitLoc(fmt.Sprintf("site%d", i%100))
			}
		}(g)
	}
	wg.Wait()
	if m.Count() != 100 {
		t.Errorf("Count = %d, want 100", m.Count())
	}
}

// TestMergeConcurrentBidirectional is the regression test for the Merge
// lock-ordering deadlock: one goroutine merging a->b while another merges
// b->a used to acquire the two maps' locks in opposite orders and hang.
// The fixed Merge snapshots `other` before locking the receiver, so this
// must complete (the 30s guard turns a regression into a failure rather
// than a hung test binary; `go test -race` additionally checks the
// snapshot path for data races).
func TestMergeConcurrentBidirectional(t *testing.T) {
	a, b := NewMap(), NewMap()
	for i := 0; i < 64; i++ {
		a.HitLoc(fmt.Sprintf("a%d", i))
		b.HitLoc(fmt.Sprintf("b%d", i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					if g%2 == 0 {
						a.Merge(b)
					} else {
						b.Merge(a)
					}
					// Writers interleave so reader starvation /
					// writer-queuing interactions are exercised too.
					a.HitLoc(fmt.Sprintf("w%d-%d", g, i))
					b.HitLoc(fmt.Sprintf("v%d-%d", g, i))
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("bidirectional Merge deadlocked")
	}
	if a.Count() == 0 || b.Count() == 0 {
		t.Error("maps lost coverage during concurrent merges")
	}
}

// TestMergeSelfIsNoop: merging a map into itself must neither deadlock
// nor report fresh sites nor inflate hit counts.
func TestMergeSelfIsNoop(t *testing.T) {
	m := NewMap()
	s := SiteOf("self")
	m.Hit(s)
	m.Hit(s)
	if fresh := m.Merge(m); fresh != 0 {
		t.Errorf("self-merge fresh = %d, want 0", fresh)
	}
	if m.Hits(s) != 2 {
		t.Errorf("self-merge changed hit count to %d", m.Hits(s))
	}
}

func BenchmarkHit(b *testing.B) {
	m := NewMap()
	s := SiteOf("bench")
	for i := 0; i < b.N; i++ {
		m.Hit(s)
	}
}
