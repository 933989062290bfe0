package coverage

import "slices"

// table is the open-addressing site set behind both Local and Map: linear
// probing on a multiplicative hash of the Site, plus the list of occupied
// slots in insertion order. A hit is one probe sequence, and flushing,
// exporting and clearing walk only the occupied slots, never the whole
// table, so their cost follows the sites a run hit rather than the
// table's capacity.
//
// Occupancy is an explicit flag: Site 0 is an ordinary key.
type table struct {
	slots []slot
	// used lists the indices of the occupied slots, in insertion order.
	used []uint32
	// shift is 64 - log2(len(slots)): the hash keeps its top bits.
	shift uint
}

type slot struct {
	site Site
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

// add inserts s when absent and reports whether s was new. One more site
// that would take the table past half full first grows it.
func (t *table) add(s Site) bool {
	if t.slots == nil {
		t.grow()
	}
	i, ok := t.find(s)
	if ok {
		return false
	}
	if 2*(len(t.used)+1) > len(t.slots) {
		t.grow()
		i, _ = t.find(s)
	}
	t.slots[i] = slot{site: s, full: true}
	t.used = append(t.used, uint32(i))
	return true
}

// has reports whether s is present.
func (t *table) has(s Site) bool {
	if t.slots == nil {
		return false
	}
	_, ok := t.find(s)
	return ok
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

// appendSites appends every site to dst in insertion order.
func (t *table) appendSites(dst []Site) []Site {
	for _, i := range t.used {
		dst = append(dst, t.slots[i].site)
	}
	return dst
}

// sortedSites returns the sites in ascending order, nil when the table
// is empty.
func (t *table) sortedSites() []Site {
	if len(t.used) == 0 {
		return nil
	}
	out := t.appendSites(make([]Site, 0, len(t.used)))
	slices.Sort(out)
	return out
}
