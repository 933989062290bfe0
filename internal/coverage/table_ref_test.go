package coverage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
)

// refMap and refLocal are the Go-map implementations that Map and Local
// replaced with the open-addressing table, kept as the reference
// FuzzSiteTable compares against. Only UnmarshalBinary differs from the
// original: it bounds the pair count (the original indexed past the
// buffer on a count whose 16*n wrapped), which no well-formed input can
// tell apart.
type refMap struct {
	sites map[Site]uint64
}

func newRefMap() *refMap { return &refMap{sites: make(map[Site]uint64)} }

func (m *refMap) Hit(s Site) { m.sites[s]++ }

func (m *refMap) Count() int { return len(m.sites) }

func (m *refMap) Covered(s Site) bool {
	_, ok := m.sites[s]
	return ok
}

func (m *refMap) Hits(s Site) uint64 { return m.sites[s] }

func (m *refMap) Merge(other *refMap) int {
	if m == other {
		return 0
	}
	fresh := 0
	for s, n := range other.sites {
		if _, ok := m.sites[s]; !ok {
			fresh++
		}
		m.sites[s] += n
	}
	return fresh
}

func (m *refMap) AddSites(sites []SiteCount) int {
	fresh := 0
	for _, sc := range sites {
		if _, ok := m.sites[sc.Site]; !ok {
			fresh++
		}
		m.sites[sc.Site] += sc.Count
	}
	return fresh
}

func (m *refMap) Reset() { m.sites = make(map[Site]uint64) }

func (m *refMap) Snapshot() []Site {
	out := make([]Site, 0, len(m.sites))
	for s := range m.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *refMap) MarshalBinary() []byte {
	sites := m.Snapshot()
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(sites)))
	for _, s := range sites {
		out = binary.LittleEndian.AppendUint64(out, uint64(s))
		out = binary.LittleEndian.AppendUint64(out, m.sites[s])
	}
	return out
}

func (m *refMap) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		m.sites = make(map[Site]uint64)
		return nil
	}
	if len(data) < 8 {
		return errors.New("truncated")
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)-8)/16 || len(data) != 8+16*int(n) {
		return errors.New("length mismatch")
	}
	sites := make(map[Site]uint64, n)
	for i := 0; i < int(n); i++ {
		off := 8 + 16*i
		sites[Site(binary.LittleEndian.Uint64(data[off:]))] = binary.LittleEndian.Uint64(data[off+8:])
	}
	m.sites = sites
	return nil
}

func (m *refMap) Signature() uint64 {
	h := uint64(fnvOffset64)
	for _, s := range m.Snapshot() {
		v := uint64(s)
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

type refLocal struct {
	sites map[Site]uint64
}

func newRefLocal() *refLocal { return &refLocal{sites: make(map[Site]uint64)} }

func (l *refLocal) Hit(s Site) { l.sites[s]++ }

func (l *refLocal) Len() int { return len(l.sites) }

func (l *refLocal) Export() []SiteCount {
	if len(l.sites) == 0 {
		return nil
	}
	out := make([]SiteCount, 0, len(l.sites))
	for s, n := range l.sites {
		out = append(out, SiteCount{Site: s, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

func (l *refLocal) FlushTo(m *refMap) int {
	fresh := 0
	if m != nil {
		for s, n := range l.sites {
			if _, ok := m.sites[s]; !ok {
				fresh++
			}
			m.sites[s] += n
		}
	}
	l.sites = make(map[Site]uint64)
	return fresh
}

// siteTableOps decodes a fuzz input into operations on two maps and one
// local recorder of each implementation.
type siteTableOps struct {
	data []byte
}

func (o *siteTableOps) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *siteTableOps) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = o.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// site draws mostly from a 160-site universe, so a long input grows a
// table well past its initial 64 slots while hits repeat, and sometimes
// takes a full 64-bit value. The universe includes Site 0.
func (o *siteTableOps) site() Site {
	b := o.byte()
	if b < 160 {
		return Site(b)
	}
	if b < 200 {
		return Site(b) << 56
	}
	return Site(o.u64())
}

// count draws a small count, zero included.
func (o *siteTableOps) count() uint64 { return uint64(o.byte() % 4) }

// encoding draws a well-formed serialized map (duplicate sites and zero
// counts included), or a truncated one.
func (o *siteTableOps) encoding() []byte {
	n := int(o.byte() % 12)
	out := binary.LittleEndian.AppendUint64(nil, uint64(n))
	for i := 0; i < n; i++ {
		out = binary.LittleEndian.AppendUint64(out, uint64(o.site()))
		out = binary.LittleEndian.AppendUint64(out, o.count())
	}
	if o.byte()%8 == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// FuzzSiteTable runs random sequences of Hit, FlushTo, Merge, AddSites,
// Reset, MarshalBinary and UnmarshalBinary on Map and Local and on the
// Go-map reference, and after every step requires equal fresh counts,
// Count, Hits, Snapshot, Signature, MarshalBinary bytes, Len and Export.
// Zero counts come in through AddSites and UnmarshalBinary: a site
// present with count 0 is covered, so occupancy must not be read from
// the count.
func FuzzSiteTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 0, 2, 0})
	f.Add([]byte{4, 0, 5, 0, 0, 7, 1, 6, 0, 1})
	grow := []byte{}
	for i := 0; i < 150; i++ {
		grow = append(grow, 0, byte(i))
	}
	f.Add(append(grow, 2, 0, 3, 1, 0, 7, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &siteTableOps{data: data}
		maps := [2]*Map{NewMap(), NewMap()}
		refs := [2]*refMap{newRefMap(), newRefMap()}
		l, rl := NewLocal(), newRefLocal()
		// The step cap keeps the every-step comparison from making
		// long generated inputs quadratic.
		for step := 0; len(o.data) > 0 && step < 600; step++ {
			op, k := o.byte(), 0
			if op&0x80 != 0 {
				k = 1
			}
			var what string
			switch op & 7 {
			case 0:
				s := o.site()
				what = fmt.Sprintf("local Hit(%#x)", s)
				l.Hit(s)
				rl.Hit(s)
			case 1:
				s := o.site()
				what = fmt.Sprintf("map %d Hit(%#x)", k, s)
				maps[k].Hit(s)
				refs[k].Hit(s)
			case 2:
				what = fmt.Sprintf("FlushTo map %d", k)
				if got, want := l.FlushTo(maps[k]), rl.FlushTo(refs[k]); got != want {
					t.Fatalf("step %d %s: fresh %d, want %d", step, what, got, want)
				}
			case 3:
				what = fmt.Sprintf("map %d Merge(map %d)", k, 1-k)
				if got, want := maps[k].Merge(maps[1-k]), refs[k].Merge(refs[1-k]); got != want {
					t.Fatalf("step %d %s: fresh %d, want %d", step, what, got, want)
				}
			case 4:
				var sites []SiteCount
				for n := o.byte() % 6; n > 0; n-- {
					sites = append(sites, SiteCount{Site: o.site(), Count: o.count()})
				}
				what = fmt.Sprintf("map %d AddSites(%v)", k, sites)
				if got, want := maps[k].AddSites(sites), refs[k].AddSites(sites); got != want {
					t.Fatalf("step %d %s: fresh %d, want %d", step, what, got, want)
				}
			case 5:
				what = fmt.Sprintf("map %d Reset", k)
				maps[k].Reset()
				refs[k].Reset()
			case 6:
				what = fmt.Sprintf("map %d round trip into map %d", k, 1-k)
				blob, err := maps[k].MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := maps[1-k].UnmarshalBinary(blob); err != nil {
					t.Fatalf("step %d %s: %v", step, what, err)
				}
				if err := refs[1-k].UnmarshalBinary(refs[k].MarshalBinary()); err != nil {
					t.Fatalf("step %d %s: reference: %v", step, what, err)
				}
			case 7:
				enc := o.encoding()
				what = fmt.Sprintf("map %d UnmarshalBinary(% x)", k, enc)
				got, want := maps[k].UnmarshalBinary(enc), refs[k].UnmarshalBinary(enc)
				if (got == nil) != (want == nil) {
					t.Fatalf("step %d %s: error %v, want %v", step, what, got, want)
				}
			}
			for i := range maps {
				if msg := mapDiff(maps[i], refs[i]); msg != "" {
					t.Fatalf("step %d %s: map %d: %s", step, what, i, msg)
				}
			}
			if l.Len() != rl.Len() || !slices.Equal(l.Export(), rl.Export()) {
				t.Fatalf("step %d %s: local holds %v, want %v", step, what, l.Export(), rl.Export())
			}
		}
	})
}

// mapDiff describes how m differs from the reference r, "" when it does
// not.
func mapDiff(m *Map, r *refMap) string {
	if m.Count() != r.Count() {
		return fmt.Sprintf("Count %d, want %d", m.Count(), r.Count())
	}
	snap := m.Snapshot()
	if !slices.Equal(snap, r.Snapshot()) {
		return fmt.Sprintf("Snapshot %v, want %v", snap, r.Snapshot())
	}
	for _, s := range snap {
		if !m.Covered(s) || m.Hits(s) != r.Hits(s) {
			return fmt.Sprintf("site %#x: covered %v hits %d, want true %d", s, m.Covered(s), m.Hits(s), r.Hits(s))
		}
	}
	if m.Covered(Site(0)) != r.Covered(Site(0)) {
		return fmt.Sprintf("Covered(0) %v, want %v", m.Covered(Site(0)), r.Covered(Site(0)))
	}
	if m.Signature() != r.Signature() {
		return fmt.Sprintf("Signature %#x, want %#x", m.Signature(), r.Signature())
	}
	blob, _ := m.MarshalBinary()
	if !bytes.Equal(blob, r.MarshalBinary()) {
		return fmt.Sprintf("MarshalBinary\n% x\nwant\n% x", blob, r.MarshalBinary())
	}
	return ""
}

// TestUnmarshalBinaryRejectsMalformed: a truncated buffer, a count that
// disagrees with the length, and counts whose 16*n wraps back to the
// length (2^60+1 pairs in 24 bytes, and a negative count as an int) are
// errors, not panics, and leave the map as it was.
func TestUnmarshalBinaryRejectsMalformed(t *testing.T) {
	pairs := func(count uint64, n int) []byte {
		out := binary.LittleEndian.AppendUint64(nil, count)
		for i := 0; i < n; i++ {
			out = binary.LittleEndian.AppendUint64(out, uint64(i+1))
			out = binary.LittleEndian.AppendUint64(out, 1)
		}
		return out
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated header", []byte{1, 0, 0}},
		{"truncated pair", pairs(1, 1)[:20]},
		{"count too large", pairs(2, 1)},
		{"count too small", pairs(1, 2)},
		{"wrapped count", pairs(1<<60+1, 1)},
		{"wrapped count, two pairs", pairs(1<<60+2, 2)},
		{"negative count", pairs(^uint64(0), 0)},
		{"negative count that wraps", pairs(0xf000000000000001, 1)}, // 1-2^60
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMap()
			m.HitLoc("kept")
			want, _ := m.MarshalBinary()
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
						t.Error(err)
					}
				}()
				return m.UnmarshalBinary(tc.data)
			}()
			if err == nil {
				t.Fatal("accepted")
			}
			if got, _ := m.MarshalBinary(); !bytes.Equal(got, want) {
				t.Fatalf("map changed by a failed decode: % x, want % x", got, want)
			}
		})
	}
}

// BenchmarkLocalFlush is one verification's coverage traffic: 40
// distinct sites hit 300 times into a pooled Local, then flushed into a
// shared map that already holds them all.
func BenchmarkLocalFlush(b *testing.B) {
	sites := make([]Site, 40)
	for i := range sites {
		sites[i] = SiteOf(fmt.Sprintf("bench:%d", i))
	}
	m, l := NewMap(), NewLocal()
	for _, s := range sites {
		m.Hit(s)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 300; j++ {
			l.Hit(sites[j*7%len(sites)])
		}
		l.FlushTo(m)
	}
}
