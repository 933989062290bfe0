package coverage

import "slices"

// table is the open-addressing Site→count table behind both Local and
// Map: linear probing on a multiplicative hash of the Site, plus the list
// of occupied slots in insertion order. A hit is one probe sequence, and
// flushing, exporting and clearing walk only the occupied slots, never the
// whole table, so their cost follows the sites a run hit rather than the
// table's capacity.
//
// Occupancy is an explicit flag: Site 0 is an ordinary key, and a site
// may be present with a zero count (UnmarshalBinary accepts one), which
// must still count as covered.
type table struct {
	slots []slot
	// used lists the indices of the occupied slots, in insertion order.
	used []uint32
	// shift is 64 - log2(len(slots)): the hash keeps its top bits.
	shift uint
}

type slot struct {
	site Site
	n    uint64
	full bool
}

const (
	// minSlots is the capacity of a table's first allocation.
	minSlots = 64
	// hashMul is 2^64 divided by the golden ratio (Fibonacci hashing).
	hashMul = 0x9e3779b97f4a7c15
)

// find returns s's slot index and true when s is present, or the free
// slot where s would go and false. The table must be allocated.
func (t *table) find(s Site) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(uint64(s) * hashMul >> t.shift); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if !e.full {
			return i, false
		}
		if e.site == s {
			return i, true
		}
	}
}

// add adds n to s's count, inserting s when absent, and reports whether
// s was new.
func (t *table) add(s Site, n uint64) bool {
	if t.slots == nil {
		t.grow()
	}
	i, ok := t.find(s)
	if ok {
		t.slots[i].n += n
		return false
	}
	t.insert(i, s, n)
	return true
}

// set stores n as s's count, inserting s when absent.
func (t *table) set(s Site, n uint64) {
	if t.slots == nil {
		t.grow()
	}
	i, ok := t.find(s)
	if ok {
		t.slots[i].n = n
		return
	}
	t.insert(i, s, n)
}

// insert places s in free slot i, first growing the table (and probing
// again) when one more site would take it past half full.
func (t *table) insert(i int, s Site, n uint64) {
	if 2*(len(t.used)+1) > len(t.slots) {
		t.grow()
		i, _ = t.find(s)
	}
	t.slots[i] = slot{site: s, n: n, full: true}
	t.used = append(t.used, uint32(i))
}

// get returns s's count and whether s is present.
func (t *table) get(s Site) (uint64, bool) {
	if t.slots == nil {
		return 0, false
	}
	i, ok := t.find(s)
	return t.slots[i].n, ok
}

// grow doubles the table (or allocates its first minSlots) and re-inserts
// the occupied slots in insertion order, rewriting used in place.
func (t *table) grow() {
	size := 2 * len(t.slots)
	if size < minSlots {
		size = minSlots
	}
	old := t.slots
	t.slots = make([]slot, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for k, oi := range t.used {
		e := old[oi]
		i, _ := t.find(e.site)
		t.slots[i] = e
		t.used[k] = uint32(i)
	}
}

// clear empties the table, keeping its capacity.
func (t *table) clear() {
	for _, i := range t.used {
		t.slots[i] = slot{}
	}
	t.used = t.used[:0]
}

// appendPairs appends every (site, count) pair to dst in insertion order.
func (t *table) appendPairs(dst []SiteCount) []SiteCount {
	for _, i := range t.used {
		e := &t.slots[i]
		dst = append(dst, SiteCount{Site: e.site, Count: e.n})
	}
	return dst
}

// sortedPairs returns every (site, count) pair in ascending site order,
// nil when the table is empty.
func (t *table) sortedPairs() []SiteCount {
	if len(t.used) == 0 {
		return nil
	}
	out := t.appendPairs(make([]SiteCount, 0, len(t.used)))
	slices.SortFunc(out, func(a, b SiteCount) int {
		switch {
		case a.Site < b.Site:
			return -1
		case a.Site > b.Site:
			return 1
		}
		return 0
	})
	return out
}

// sortedSites returns the present sites in ascending order.
func (t *table) sortedSites() []Site {
	out := make([]Site, 0, len(t.used))
	for _, i := range t.used {
		out = append(out, t.slots[i].site)
	}
	slices.Sort(out)
	return out
}
