package core

import (
	"errors"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/verifier"
)

// Corpus keeps programs that produced new verifier coverage, the feedback
// loop BVF inherits from Syzkaller (§5: "the coverage information enables
// BVF to preserve interesting eBPF programs ... so that the following
// generation can base on the saved programs").
type Corpus struct {
	max   int
	progs []*isa.Program
	// weights bias selection toward higher-novelty entries.
	weights []int
	total   int
	// pinned is the index of the entry protected from FIFO eviction, -1
	// when none. The sibling-batch scheduler pins its current parent:
	// a mid-batch Add must not evict the program that is actively
	// seeding mutants (and whose continued presence checkpointed resumes
	// rely on for identical eviction decisions).
	pinned int
}

// NewCorpus returns a corpus bounded to max entries (oldest evicted).
func NewCorpus(max int) *Corpus {
	return &Corpus{max: max, pinned: -1}
}

// Len returns the number of stored programs.
func (c *Corpus) Len() int { return len(c.progs) }

// Add stores a program with the given novelty weight. When full, the
// oldest entry is evicted by compacting the slice in place — re-slicing
// (progs = progs[1:]) would keep every evicted program reachable through
// the shared backing array for the campaign's lifetime, a slow leak over
// a multi-day run.
func (c *Corpus) Add(p *isa.Program, novelty int) {
	if novelty < 1 {
		novelty = 1
	}
	// The loop drains any temporary overflow left by a pinned max-1
	// corpus once the pin is released.
	for len(c.progs) >= c.max {
		evict := 0
		if evict == c.pinned {
			// The oldest entry is an in-flight batch parent; evict the
			// next-oldest instead of the program actively seeding mutants.
			evict = 1
		}
		if evict >= len(c.progs) {
			// The only evictable entry is pinned (max 1); the corpus
			// exceeds max by one entry until Unpin rather than dropping
			// the batch parent.
			break
		}
		c.total -= c.weights[evict]
		n := len(c.progs)
		copy(c.progs[evict:], c.progs[evict+1:])
		c.progs[n-1] = nil // release the evicted program for GC
		c.progs = c.progs[:n-1]
		copy(c.weights[evict:], c.weights[evict+1:])
		c.weights = c.weights[:n-1]
		if c.pinned > evict {
			c.pinned--
		}
	}
	c.progs = append(c.progs, p.Clone())
	c.weights = append(c.weights, novelty)
	c.total += novelty
}

// Pick returns a weighted-random corpus program.
func (c *Corpus) Pick(r *rand.Rand) *isa.Program {
	if len(c.progs) == 0 {
		return nil
	}
	return c.progs[c.pick(r)]
}

// PickPinned picks like Pick and additionally pins the chosen entry
// against eviction until Unpin: the sibling-batch scheduler's parent
// must survive any corpus additions made while its batch is in flight.
// Only one entry is pinned at a time; a new pin replaces the old one.
func (c *Corpus) PickPinned(r *rand.Rand) *isa.Program {
	if len(c.progs) == 0 {
		return nil
	}
	c.pinned = c.pick(r)
	return c.progs[c.pinned]
}

// Unpin lifts the eviction protection installed by PickPinned.
func (c *Corpus) Unpin() { c.pinned = -1 }

// pick draws a weighted-random index. Callers check for emptiness.
func (c *Corpus) pick(r *rand.Rand) int {
	n := r.Intn(c.total)
	for i, w := range c.weights {
		if n < w {
			return i
		}
		n -= w
	}
	return len(c.progs) - 1
}

// CorpusEntry is one exported corpus program with its selection weight,
// as persisted by checkpoints.
type CorpusEntry struct {
	Prog   *isa.Program
	Weight int
}

// Export snapshots the corpus contents in insertion order. The returned
// entries share programs with the corpus; callers that mutate them must
// clone first (checkpointing only serializes, so it does not).
func (c *Corpus) Export() []CorpusEntry {
	out := make([]CorpusEntry, 0, len(c.progs))
	for i, p := range c.progs {
		out = append(out, CorpusEntry{Prog: p, Weight: c.weights[i]})
	}
	return out
}

// Import replaces the corpus contents with the exported entries,
// preserving order and weights. Restoring a checkpoint round-trips
// Export exactly: a subsequent Pick sequence matches the original's.
func (c *Corpus) Import(entries []CorpusEntry) {
	c.progs = c.progs[:0]
	c.weights = c.weights[:0]
	c.total = 0
	c.pinned = -1 // restoreState re-pins from the serialized batch state
	for _, e := range entries {
		if e.Prog == nil {
			continue
		}
		w := e.Weight
		if w < 1 {
			w = 1
		}
		c.progs = append(c.progs, e.Prog)
		c.weights = append(c.weights, w)
		c.total += w
	}
}

// rejectInfo extracts the errno and a short reason key from a program
// load failure, walking err's wrap chain like isVerifierTimeout.
func rejectInfo(err error) (errno int, word string) {
	for e := err; e != nil; e = errors.Unwrap(e) {
		switch e := e.(type) {
		case *verifier.Error:
			return e.Errno, e.Reason()
		case *kernel.SyscallBugError:
			return verifier.EINVAL, "kmemdup"
		}
	}
	return verifier.EINVAL, "other"
}
