package coverage

import (
	"fmt"
	"sync"
	"testing"
)

func TestLocalFlushMatchesDirectHits(t *testing.T) {
	direct := NewMap()
	viaLocal := NewMap()
	l := NewLocal()

	locs := []string{"jmp:jeq:both", "exit:main", "alu:scalar:+=", "jmp:jeq:both"}
	for _, loc := range locs {
		direct.HitLoc(loc)
		l.HitLoc(loc)
	}
	fresh := l.FlushTo(viaLocal)
	if fresh != 3 {
		t.Fatalf("FlushTo fresh = %d, want 3", fresh)
	}
	if l.Len() != 0 {
		t.Fatalf("Local not cleared after flush: len=%d", l.Len())
	}
	if direct.Signature() != viaLocal.Signature() {
		t.Fatalf("signature mismatch: direct=%#x local=%#x", direct.Signature(), viaLocal.Signature())
	}
	if !viaLocal.Covered(SiteOf("jmp:jeq:both")) || viaLocal.Count() != 3 {
		t.Fatalf("Local flushed %d sites, want 3 with jmp:jeq:both", viaLocal.Count())
	}

	// Re-flushing the same sites must report zero fresh.
	l.HitLoc("exit:main")
	if fresh := l.FlushTo(viaLocal); fresh != 0 {
		t.Fatalf("second flush fresh = %d, want 0", fresh)
	}
}

func TestLocalNilSafe(t *testing.T) {
	var l *Local
	l.Hit(SiteOf("x"))
	l.HitLoc("x")
	if l.Len() != 0 {
		t.Fatal("nil Local reported nonzero length")
	}
	if l.FlushTo(NewMap()) != 0 {
		t.Fatal("nil Local flushed sites")
	}
	if NewLocal().FlushTo(nil) != 0 {
		t.Fatal("flush to nil map reported fresh sites")
	}
}

// TestSignatureFollowsEveryMutation checks Snapshot and Signature after
// every mutation path: Hit on a new site, Hit on a known site (the site
// set, and so the signature, stays), Merge, FlushTo, Reset, and
// UnmarshalBinary.
func TestSignatureFollowsEveryMutation(t *testing.T) {
	m := NewMap()
	m.HitLoc("a")
	m.HitLoc("b")

	sig1 := m.Signature()
	if m.Signature() != sig1 {
		t.Fatal("signature unstable")
	}
	snap1 := m.Snapshot()

	// Count bump on a known site keeps the signature.
	m.HitLoc("a")
	if m.Signature() != sig1 {
		t.Fatal("count bump changed signature")
	}

	// New site via Hit changes it.
	m.HitLoc("c")
	if m.Signature() == sig1 {
		t.Fatal("new site did not change signature")
	}
	if len(m.Snapshot()) != 3 {
		t.Fatal("snapshot missing new site")
	}

	// Snapshot must return a private copy.
	snap := m.Snapshot()
	snap[0] = Site(0xdead)
	if m.Snapshot()[0] == Site(0xdead) {
		t.Fatal("Snapshot leaked an internal slice")
	}

	// Merge with fresh sites changes the signature; merge with no fresh
	// sites doesn't.
	other := NewMap()
	other.HitLoc("d")
	sigBefore := m.Signature()
	if m.Merge(other) != 1 {
		t.Fatal("merge fresh count wrong")
	}
	if m.Signature() == sigBefore {
		t.Fatal("merge with fresh site did not change signature")
	}
	sigBefore = m.Signature()
	if m.Merge(other) != 0 {
		t.Fatal("re-merge reported fresh sites")
	}
	if m.Signature() != sigBefore {
		t.Fatal("no-fresh merge changed signature")
	}

	// FlushTo with fresh sites changes it.
	l := NewLocal()
	l.HitLoc("e")
	l.FlushTo(m)
	if m.Signature() == sigBefore {
		t.Fatal("local flush with fresh site did not change signature")
	}

	// Round-trip through gob-style marshaling preserves the signature.
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewMap()
	restored.HitLoc("zzz") // stale contents
	restored.Signature()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Signature() != m.Signature() {
		t.Fatal("unmarshal did not replace the signature")
	}

	// Reset goes back to the empty signature.
	empty := NewMap()
	m.Reset()
	if m.Signature() != empty.Signature() {
		t.Fatal("reset did not restore the empty signature")
	}
	_ = snap1
}

// TestLocalFlushRace runs unsynchronized Local recorders on independent
// goroutines, each flushing into the shared map, while other goroutines
// concurrently Merge shard maps in and read Snapshot/Signature/Count —
// the exact interleaving of a parallel sharded campaign. Run under -race.
func TestLocalFlushRace(t *testing.T) {
	shared := NewMap()
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := NewLocal()
			for i := 0; i < 200; i++ {
				l.HitLoc(fmt.Sprintf("site:%d", (g*31+i)%97))
				l.HitLoc("exit:main")
				if i%10 == 9 {
					l.FlushTo(shared)
				}
			}
			l.FlushTo(shared)
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shard := NewMap()
			for i := 0; i < 100; i++ {
				shard.HitLoc(fmt.Sprintf("shard:%d:%d", g, i%13))
				shared.Merge(shard)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			_ = shared.Snapshot()
			_ = shared.Signature()
			_ = shared.Count()
		}
	}()
	wg.Wait()

	// 97 site:%d residues, exit:main, and 13 sites from each shard.
	if got, want := shared.Count(), 97+1+2*13; got != want {
		t.Fatalf("shared map holds %d sites, want %d", got, want)
	}
	for _, loc := range []string{"exit:main", "site:0", "site:96", "shard:0:12", "shard:1:0"} {
		if !shared.Covered(SiteOf(loc)) {
			t.Fatalf("%s not covered", loc)
		}
	}
}
