package coverage

import (
	"encoding/binary"
	"fmt"
	"slices"
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
	if m.Count() != 0 || m.Covered(1) {
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
// nor report fresh sites nor change the site set.
func TestMergeSelfIsNoop(t *testing.T) {
	m := NewMap()
	s := SiteOf("self")
	m.Hit(s)
	m.Hit(s)
	if fresh := m.Merge(m); fresh != 0 {
		t.Errorf("self-merge fresh = %d, want 0", fresh)
	}
	if m.Count() != 1 || !m.Covered(s) {
		t.Errorf("self-merge left %d sites, covered %v; want 1, true", m.Count(), m.Covered(s))
	}
}

func BenchmarkHit(b *testing.B) {
	m := NewMap()
	s := SiteOf("bench")
	for i := 0; i < b.N; i++ {
		m.Hit(s)
	}
}

// TestUnmarshalIgnoresCountWord: a blob in the layout that once carried
// hit counts decodes to its site set whatever the count words say (0, 1
// or 7), and MarshalBinary writes that layout back, 8+16n bytes with
// every count word 1.
func TestUnmarshalIgnoresCountWord(t *testing.T) {
	sites := []Site{0, 3, SiteOf("exit:main"), 1 << 63}
	slices.Sort(sites)
	for _, counts := range [][]uint64{{0, 0, 0, 0}, {1, 1, 1, 1}, {7, 7, 7, 7}, {0, 1, 7, 1}} {
		blob := binary.LittleEndian.AppendUint64(nil, uint64(len(sites)))
		for i, s := range sites {
			blob = binary.LittleEndian.AppendUint64(blob, uint64(s))
			blob = binary.LittleEndian.AppendUint64(blob, counts[i])
		}
		m := NewMap()
		if err := m.UnmarshalBinary(blob); err != nil {
			t.Fatalf("counts %v: %v", counts, err)
		}
		if got := m.Snapshot(); !slices.Equal(got, sites) {
			t.Fatalf("counts %v: decoded %v, want %v", counts, got, sites)
		}
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 8+16*len(sites) || binary.LittleEndian.Uint64(out) != uint64(len(sites)) {
			t.Fatalf("counts %v: encoded %d bytes with pair count %d, want %d bytes, %d",
				counts, len(out), binary.LittleEndian.Uint64(out), 8+16*len(sites), len(sites))
		}
		for i, s := range sites {
			pair := out[8+16*i:]
			if Site(binary.LittleEndian.Uint64(pair)) != s || binary.LittleEndian.Uint64(pair[8:]) != 1 {
				t.Fatalf("counts %v: pair %d is % x, want site %#x with count word 1", counts, i, pair[:16], s)
			}
		}
	}
}

// TestSiteOfParts: naming a site by parts gives SiteOf of their
// concatenation, however the name is split, and allocates nothing.
func TestSiteOfParts(t *testing.T) {
	for _, tc := range []struct {
		parts []string
		name  string
	}{
		{nil, ""},
		{[]string{""}, ""},
		{[]string{"exit:main"}, "exit:main"},
		{[]string{"call:", "map_lookup_elem"}, "call:map_lookup_elem"},
		{[]string{"mem:map_value:", "array", ":", "8", ":", "true"}, "mem:map_value:array:8:true"},
		{[]string{"", "jmp:", "", "jeq:both"}, "jmp:jeq:both"},
	} {
		if got, want := SiteOfParts(tc.parts...), SiteOf(tc.name); got != want {
			t.Errorf("SiteOfParts(%q) = %#x, want SiteOf(%q) = %#x", tc.parts, got, tc.name, want)
		}
	}
	if SiteOfParts("ab", "c") == SiteOfParts("c", "ab") {
		t.Error("SiteOfParts ignores the order of its parts")
	}
	name := fmt.Sprint("field", 3)
	if n := testing.AllocsPerRun(100, func() { _ = SiteOfParts("mem:ctx_field:", "xdp", ":", name) }); n != 0 {
		t.Errorf("SiteOfParts allocates %.0f times per call", n)
	}
}
