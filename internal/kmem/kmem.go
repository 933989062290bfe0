// Package kmem simulates the kernel's memory state for eBPF execution: a
// synthetic 64-bit address space with allocation tracking and KASAN-style
// shadow metadata (redzones, use-after-free on freed objects).
//
// The package deliberately reproduces the asymmetry that BVF's oracle
// depends on. A *checked* access (CheckAccess, as called by the
// bpf_asan_load/store dispatch functions) detects out-of-bounds,
// use-after-free and null dereferences and produces a Report. A *raw*
// access (Load/Store, as performed by uninstrumented JITed code) silently
// corrupts or reads garbage unless it hits the null page — only a null-page
// raw access faults the simulated kernel, mirroring how real hardware
// behaves when KASAN cannot see the access.
package kmem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Address-space layout constants.
const (
	// Base is the lowest address handed out by the allocator, chosen to
	// resemble the kernel direct map.
	Base uint64 = 0xffff_8800_0000_0000
	// Redzone is the number of poisoned guard bytes around each
	// allocation.
	Redzone = 64
	// NullPage is the size of the region around address zero whose raw
	// access faults the kernel.
	NullPage uint64 = 4096
)

// ReportKind classifies a detected invalid access.
type ReportKind int

// Report kinds.
const (
	ReportNone ReportKind = iota
	// ReportOOB is an access beyond an allocation's bounds (redzone hit).
	ReportOOB
	// ReportUAF is an access to a freed allocation.
	ReportUAF
	// ReportNull is an access inside the null page.
	ReportNull
	// ReportWild is an access to memory never handed out.
	ReportWild
)

func (k ReportKind) String() string {
	switch k {
	case ReportOOB:
		return "slab-out-of-bounds"
	case ReportUAF:
		return "use-after-free"
	case ReportNull:
		return "null-ptr-deref"
	case ReportWild:
		return "wild-memory-access"
	}
	return "none"
}

// Report describes one invalid memory access detected by the shadow
// checks. It corresponds to a KASAN splat in the paper's setting.
type Report struct {
	Kind  ReportKind
	Addr  uint64
	Size  int
	Write bool
	// Tag names the allocation involved, when one is known.
	Tag string
}

// Error implements the error interface so reports flow through error
// returns where convenient.
func (r *Report) Error() string {
	op := "read"
	if r.Write {
		op = "write"
	}
	if r.Tag != "" {
		return fmt.Sprintf("KASAN: %s in %s of size %d at addr %#x (object %q)", r.Kind, op, r.Size, r.Addr, r.Tag)
	}
	return fmt.Sprintf("KASAN: %s in %s of size %d at addr %#x", r.Kind, op, r.Size, r.Addr)
}

// Allocation is one object in the simulated kernel heap.
type Allocation struct {
	BaseAddr uint64
	Size     int
	Data     []byte
	Freed    bool
	// Tag records the allocation site for diagnostics ("map_value",
	// "bpf_stack", "ctx", ...).
	Tag string
}

// End returns the first address past the allocation.
func (a *Allocation) End() uint64 { return a.BaseAddr + uint64(a.Size) }

// Domain is a simulated kernel address space. It is not safe for
// concurrent use; each executor owns one.
type Domain struct {
	next   uint64
	allocs []*Allocation // sorted by BaseAddr
	// slab holds the records the next Allocs hand out, made slabSize at
	// a time.
	slab []Allocation
	// free holds freed allocations' bytes by size, for the next Alloc of
	// that size to zero and reuse. No access reads a freed allocation's
	// bytes (each tests Freed first), so handing them on is invisible.
	free map[int][][]byte
	// SilentCorruptions counts raw accesses that landed outside any
	// live allocation without faulting — the invisible damage an
	// uninstrumented bad program does.
	SilentCorruptions int
}

// slabSize is how many allocation records one slab holds. A kernel that
// is reset often (a minimizer resets one per candidate) pays for each
// slab's unused tail, so slabs stay small.
const slabSize = 8

// NewDomain returns an empty address space. Its record list starts with
// room for a machine's construction (a kernel variable per BTF struct
// type, then the resource pool's maps: 22 records), which a kernel reset
// repeats, so a reset-heavy caller such as the minimizer does not pay
// for the list's first doublings on every reset.
func NewDomain() *Domain {
	return &Domain{next: Base, allocs: make([]*Allocation, 0, 32)}
}

// Alloc creates a new allocation of the given size tagged with tag and
// returns it, its bytes zeroed. Guard redzones are reserved on both
// sides. The address space is never reused, so the address depends only
// on the sizes allocated before, freed or not.
func (d *Domain) Alloc(size int, tag string) *Allocation {
	if size < 0 {
		panic("kmem: negative allocation size")
	}
	if len(d.slab) == 0 {
		d.slab = make([]Allocation, slabSize)
	}
	a := &d.slab[0]
	d.slab = d.slab[1:]
	d.next += Redzone
	*a = Allocation{BaseAddr: d.next, Size: size, Data: d.bytes(size), Tag: tag}
	d.next += uint64(size) + Redzone
	d.allocs = append(d.allocs, a)
	return a
}

// bytes returns size zeroed bytes, reusing a freed allocation's when one
// of that size is waiting.
func (d *Domain) bytes(size int) []byte {
	bufs := d.free[size]
	if len(bufs) == 0 {
		return make([]byte, size)
	}
	b := bufs[len(bufs)-1]
	bufs[len(bufs)-1] = nil
	d.free[size] = bufs[:len(bufs)-1]
	clear(b)
	return b
}

// Free marks the allocation freed: subsequent checked accesses report
// use-after-free and raw ones read garbage. Its bytes go to the next
// Alloc of the same size, and its Data becomes nil, so a stray read of
// the record panics instead of seeing another object's bytes. Freeing
// twice is a no-op.
func (d *Domain) Free(a *Allocation) {
	if a.Freed {
		return
	}
	a.Freed = true
	if d.free == nil {
		d.free = make(map[int][][]byte)
	}
	d.free[a.Size] = append(d.free[a.Size], a.Data)
	a.Data = nil
}

// find returns the allocation containing addr, or nil. It also returns the
// nearest allocation whose redzone contains addr, for OOB attribution.
func (d *Domain) find(addr uint64) (live *Allocation, near *Allocation) {
	i := sort.Search(len(d.allocs), func(i int) bool {
		return d.allocs[i].End() > addr
	})
	if i < len(d.allocs) {
		a := d.allocs[i]
		if addr >= a.BaseAddr {
			return a, a
		}
		if addr+Redzone >= a.BaseAddr {
			near = a
		}
	}
	if i > 0 {
		a := d.allocs[i-1]
		if addr < a.End()+Redzone {
			near = a
		}
	}
	return nil, near
}

// CheckAccess validates an access of size bytes at addr, as the
// KASAN-instrumented bpf_asan_* functions do. It returns nil for a valid
// access to a live allocation and a Report otherwise.
func (d *Domain) CheckAccess(addr uint64, size int, write bool) *Report {
	if size <= 0 {
		return &Report{Kind: ReportWild, Addr: addr, Size: size, Write: write}
	}
	if addr < NullPage || addr+uint64(size) < addr {
		return &Report{Kind: ReportNull, Addr: addr, Size: size, Write: write}
	}
	a, near := d.find(addr)
	if a == nil {
		if near != nil {
			return &Report{Kind: ReportOOB, Addr: addr, Size: size, Write: write, Tag: near.Tag}
		}
		return &Report{Kind: ReportWild, Addr: addr, Size: size, Write: write}
	}
	if a.Freed {
		return &Report{Kind: ReportUAF, Addr: addr, Size: size, Write: write, Tag: a.Tag}
	}
	if addr+uint64(size) > a.End() {
		return &Report{Kind: ReportOOB, Addr: addr, Size: size, Write: write, Tag: a.Tag}
	}
	return nil
}

// FaultError is returned by raw accesses that the simulated hardware
// cannot survive (null-page dereference). It models a kernel oops.
type FaultError struct {
	Addr  uint64
	Size  int
	Write bool
}

func (e *FaultError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("kernel oops: unable to handle page fault (%s of size %d at %#x)", op, e.Size, e.Addr)
}

// Load performs a raw (uninstrumented) load. Loads from live allocations
// return the stored bytes; null-page loads fault; everything else reads
// garbage silently and bumps SilentCorruptions.
func (d *Domain) Load(addr uint64, size int) (uint64, error) {
	if addr < NullPage {
		return 0, &FaultError{Addr: addr, Size: size}
	}
	a, _ := d.find(addr)
	if a == nil || a.Freed || addr+uint64(size) > a.End() {
		d.SilentCorruptions++
		// Deterministic garbage derived from the address.
		return 0xaaaaaaaaaaaaaaaa ^ addr, nil
	}
	off := addr - a.BaseAddr
	return loadLE(a.Data[off:], size), nil
}

// Store performs a raw (uninstrumented) store with the same fault
// semantics as Load.
func (d *Domain) Store(addr uint64, size int, val uint64) error {
	if addr < NullPage {
		return &FaultError{Addr: addr, Size: size, Write: true}
	}
	a, _ := d.find(addr)
	if a == nil || a.Freed || addr+uint64(size) > a.End() {
		d.SilentCorruptions++
		return nil
	}
	off := addr - a.BaseAddr
	storeLE(a.Data[off:], size, val)
	return nil
}

// LoadChecked validates then loads, as the asan dispatch functions do.
func (d *Domain) LoadChecked(addr uint64, size int) (uint64, *Report) {
	if rep := d.CheckAccess(addr, size, false); rep != nil {
		return 0, rep
	}
	v, _ := d.Load(addr, size)
	return v, nil
}

// StoreChecked validates then stores.
func (d *Domain) StoreChecked(addr uint64, size int, val uint64) *Report {
	if rep := d.CheckAccess(addr, size, true); rep != nil {
		return rep
	}
	_ = d.Store(addr, size, val)
	return nil
}

// Resolve returns the live allocation containing addr, if any.
func (d *Domain) Resolve(addr uint64) *Allocation {
	a, _ := d.find(addr)
	if a == nil || a.Freed {
		return nil
	}
	return a
}

// Allocations returns the number of allocations ever made (live or freed).
func (d *Domain) Allocations() int { return len(d.allocs) }

// loadLE reads the little-endian value of size bytes, 1 to 8, at b: a
// program's loads are 1, 2, 4 or 8 bytes, and a helper's copy ends with
// a tail of any size up to 8.
func loadLE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	checkSize(size)
	var v uint64
	for i := range size {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// storeLE writes the low size bytes of v, 1 to 8, little-endian at b.
func storeLE(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		checkSize(size)
		for i := range size {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// checkSize panics on a size outside 1 to 8, which only a bug in the
// caller can produce.
func checkSize(size int) {
	if size < 1 || size > 8 {
		panic(fmt.Sprintf("kmem: bad access size %d", size))
	}
}
