package vcache

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/verifier"
)

// prog returns a two-instruction program returning ret.
func prog(ret int32) *isa.Program {
	return &isa.Program{
		Type:          isa.ProgTypeSocketFilter,
		GPLCompatible: true,
		Insns:         []isa.Instruction{isa.Mov64Imm(isa.R0, ret), isa.Exit()},
	}
}

// entry builds the cache entry for p, tagged by InsnProcessed so tests can
// tell entries for the same program apart.
func entry(p *isa.Program, tag int) *verifier.CachedVerdict {
	return &verifier.CachedVerdict{Prog: verifier.CanonicalProgramBytes(p), InsnProcessed: tag}
}

func TestStoreFirstInsertWins(t *testing.T) {
	s := NewStore(4)
	p := prog(0)
	fp := verifier.ProgramFingerprint(p)
	first := entry(p, 1)
	s.Insert(fp, first)
	s.Insert(fp, entry(p, 2))
	if got := s.Lookup(fp, p); got != first {
		t.Fatalf("Lookup = %+v, want the first inserted entry", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after a duplicate insert, want 1", s.Len())
	}
	if got, want := s.CounterSnapshot().InsertedBytes, int64(first.EstimateBytes()); got != want {
		t.Errorf("InsertedBytes = %d, want %d (a duplicate insert adds nothing)", got, want)
	}
}

func TestStoreFIFOEviction(t *testing.T) {
	s := NewStore(2)
	progs := []*isa.Program{prog(1), prog(2), prog(3)}
	fps := make([]uint64, len(progs))
	for i, p := range progs[:2] {
		fps[i] = verifier.ProgramFingerprint(p)
		s.Insert(fps[i], entry(p, i))
	}
	// A hit does not refresh an entry's age: eviction is FIFO, not LRU.
	if s.Lookup(fps[0], progs[0]) == nil {
		t.Fatal("entry 0 missing before capacity was reached")
	}
	fps[2] = verifier.ProgramFingerprint(progs[2])
	s.Insert(fps[2], entry(progs[2], 2))
	if s.Len() != 2 {
		t.Errorf("Len = %d at capacity 2, want 2", s.Len())
	}
	if s.Lookup(fps[0], progs[0]) != nil {
		t.Error("oldest entry survived an insert past capacity")
	}
	for i := 1; i < 3; i++ {
		if v := s.Lookup(fps[i], progs[i]); v == nil || v.InsnProcessed != i {
			t.Errorf("entry %d: Lookup = %+v, want the entry tagged %d", i, v, i)
		}
	}
}

// A fingerprint collision must degrade to a miss: the stored canonical
// bytes belong to another program, so Lookup returns nil and counts a
// miss instead of replaying the other program's verdict.
func TestStoreCollisionIsMiss(t *testing.T) {
	s := NewStore(4)
	a, b := prog(1), prog(2)
	fp := verifier.ProgramFingerprint(a)
	s.Insert(fp, entry(a, 1))
	if v := s.Lookup(fp, b); v != nil {
		t.Fatalf("Lookup under a colliding fingerprint returned %+v, want nil", v)
	}
	if c := s.CounterSnapshot(); c.Hits != 0 || c.Misses != 1 {
		t.Errorf("counters after a collision: hits %d misses %d, want 0 and 1", c.Hits, c.Misses)
	}
}

func TestStoreCounters(t *testing.T) {
	s := NewStore(0)
	if s.Len() != 0 {
		t.Fatalf("new store has Len %d", s.Len())
	}
	var want int64
	for i := int32(0); i < 3; i++ {
		p := prog(i)
		fp := verifier.ProgramFingerprint(p)
		if s.Lookup(fp, p) != nil {
			t.Fatalf("cold lookup of program %d hit", i)
		}
		v := entry(p, int(i))
		v.Cov = make([]coverage.Site, i)
		s.Insert(fp, v)
		want += int64(v.EstimateBytes())
		if s.Lookup(fp, p) != v {
			t.Fatalf("warm lookup of program %d missed", i)
		}
	}
	c := s.CounterSnapshot()
	if c.Hits != 3 || c.Misses != 3 || c.InsertedBytes != want {
		t.Errorf("counters = %+v, want 3 hits, 3 misses, %d inserted bytes", c, want)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

// The prefix methods remain only as deprecated no-ops.
func TestStorePrefixMethodsAreNoOps(t *testing.T) {
	s := NewStore(4)
	s.InsertPrefix(1, &verifier.PrefixSnapshot{})
	if s.NotePrefix(1) || s.NotePrefix(1) {
		t.Error("NotePrefix reported a prefix as seen")
	}
	if s.LookupPrefix(1, nil) != nil {
		t.Error("LookupPrefix returned a snapshot")
	}
	if c := s.CounterSnapshot(); c != (Counters{}) || s.Len() != 0 {
		t.Errorf("prefix calls changed the store: %+v, Len %d", c, s.Len())
	}
}
