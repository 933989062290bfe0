package kmem

import (
	"testing"
	"testing/quick"
)

func TestAllocLoadStoreRoundTrip(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(64, "obj")
	for _, size := range []int{1, 2, 4, 8} {
		want := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if err := d.Store(a.BaseAddr+8, size, want); err != nil {
			t.Fatalf("Store: %v", err)
		}
		got, err := d.Load(a.BaseAddr+8, size)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
}

func TestCheckAccessValid(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(32, "obj")
	if rep := d.CheckAccess(a.BaseAddr, 32, true); rep != nil {
		t.Errorf("full-object write reported: %v", rep)
	}
	if rep := d.CheckAccess(a.BaseAddr+24, 8, false); rep != nil {
		t.Errorf("tail read reported: %v", rep)
	}
}

func TestCheckAccessOOB(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(32, "obj")
	rep := d.CheckAccess(a.BaseAddr+28, 8, false)
	if rep == nil || rep.Kind != ReportOOB {
		t.Fatalf("straddling read: got %v, want OOB", rep)
	}
	if rep.Tag != "obj" {
		t.Errorf("OOB tag = %q, want obj", rep.Tag)
	}
	rep = d.CheckAccess(a.End()+4, 4, true)
	if rep == nil || rep.Kind != ReportOOB {
		t.Fatalf("redzone write: got %v, want OOB", rep)
	}
	rep = d.CheckAccess(a.BaseAddr-8, 4, false)
	if rep == nil || rep.Kind != ReportOOB {
		t.Fatalf("leading redzone read: got %v, want OOB", rep)
	}
}

func TestCheckAccessUAF(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(16, "victim")
	d.Free(a)
	rep := d.CheckAccess(a.BaseAddr, 8, false)
	if rep == nil || rep.Kind != ReportUAF {
		t.Fatalf("freed read: got %v, want UAF", rep)
	}
	if rep.Tag != "victim" {
		t.Errorf("UAF tag = %q", rep.Tag)
	}
}

func TestCheckAccessNullAndWild(t *testing.T) {
	d := NewDomain()
	if rep := d.CheckAccess(0, 8, false); rep == nil || rep.Kind != ReportNull {
		t.Errorf("null read: got %v", rep)
	}
	if rep := d.CheckAccess(100, 8, true); rep == nil || rep.Kind != ReportNull {
		t.Errorf("near-null write: got %v", rep)
	}
	if rep := d.CheckAccess(0x10000, 8, false); rep == nil || rep.Kind != ReportWild {
		t.Errorf("wild read: got %v", rep)
	}
	// Overflowing addr+size wraps to null.
	if rep := d.CheckAccess(^uint64(0)-3, 8, false); rep == nil || rep.Kind != ReportNull {
		t.Errorf("wrapping read: got %v", rep)
	}
}

func TestRawAccessSemantics(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(16, "obj")

	// Raw access to live memory works.
	if err := d.Store(a.BaseAddr, 8, 7); err != nil {
		t.Fatalf("raw store: %v", err)
	}

	// Raw null access faults (kernel oops).
	if _, err := d.Load(8, 8); err == nil {
		t.Error("raw null load did not fault")
	}
	if err := d.Store(8, 8, 1); err == nil {
		t.Error("raw null store did not fault")
	}

	// Raw OOB is silent but counted.
	before := d.SilentCorruptions
	if err := d.Store(a.End()+8, 8, 1); err != nil {
		t.Errorf("raw OOB store faulted: %v", err)
	}
	if _, err := d.Load(a.End()+8, 8); err != nil {
		t.Errorf("raw OOB load faulted: %v", err)
	}
	if d.SilentCorruptions != before+2 {
		t.Errorf("SilentCorruptions = %d, want %d", d.SilentCorruptions, before+2)
	}

	// UAF raw access is silent too.
	d.Free(a)
	if _, err := d.Load(a.BaseAddr, 8); err != nil {
		t.Errorf("raw UAF load faulted: %v", err)
	}
}

func TestLoadCheckedStoreChecked(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(16, "obj")
	if rep := d.StoreChecked(a.BaseAddr, 8, 42); rep != nil {
		t.Fatalf("StoreChecked: %v", rep)
	}
	v, rep := d.LoadChecked(a.BaseAddr, 8)
	if rep != nil || v != 42 {
		t.Fatalf("LoadChecked = %d, %v", v, rep)
	}
	if _, rep := d.LoadChecked(a.End(), 8); rep == nil {
		t.Error("LoadChecked past end succeeded")
	}
}

func TestResolve(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(16, "x")
	b := d.Alloc(16, "y")
	if got := d.Resolve(a.BaseAddr + 4); got != a {
		t.Errorf("Resolve inside a = %v", got)
	}
	if got := d.Resolve(b.BaseAddr); got != b {
		t.Errorf("Resolve base of b = %v", got)
	}
	if got := d.Resolve(a.End() + 1); got != nil {
		t.Errorf("Resolve redzone = %v, want nil", got)
	}
	d.Free(a)
	if got := d.Resolve(a.BaseAddr); got != nil {
		t.Errorf("Resolve freed = %v, want nil", got)
	}
}

// TestFreedBytesReused: an Alloc after a Free of the same size gets the
// freed bytes, zeroed, at a new address, while the freed record still
// reads as freed to every access and holds no bytes. A second Free of the
// record hands nothing on.
func TestFreedBytesReused(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(576, "bpf_stack")
	if err := d.Store(a.BaseAddr+8, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	bytes := &a.Data[0]
	d.Free(a)
	if a.Data != nil {
		t.Errorf("freed record keeps %d bytes", len(a.Data))
	}
	b := d.Alloc(576, "bpf_stack")
	if b.BaseAddr != a.End()+2*Redzone {
		t.Errorf("second allocation at %#x, want %#x", b.BaseAddr, a.End()+2*Redzone)
	}
	if len(b.Data) != 576 || &b.Data[0] != bytes {
		t.Error("the freed bytes were not reused")
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("reused byte %d = %#x, want 0", i, v)
		}
	}
	if err := d.Store(b.BaseAddr+8, 8, 42); err != nil {
		t.Fatal(err)
	}
	// The freed record: use-after-free, garbage and no resolution.
	if rep := d.CheckAccess(a.BaseAddr+8, 8, false); rep == nil || rep.Kind != ReportUAF || rep.Tag != "bpf_stack" {
		t.Errorf("checked read of the freed record = %v, want use-after-free", rep)
	}
	before := d.SilentCorruptions
	if v, err := d.Load(a.BaseAddr+8, 8); err != nil || v != 0xaaaaaaaaaaaaaaaa^(a.BaseAddr+8) {
		t.Errorf("raw read of the freed record = %#x, %v; want the garbage pattern", v, err)
	}
	if d.SilentCorruptions != before+1 {
		t.Error("raw read of the freed record was not counted")
	}
	if got := d.Resolve(a.BaseAddr); got != nil {
		t.Errorf("Resolve(freed) = %v, want nil", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a stray read of the freed record's bytes did not panic")
			}
		}()
		_ = a.Data[8]
	}()
	// Freeing twice hands nothing on: the next allocation gets fresh
	// bytes, not b's.
	d.Free(a)
	c := d.Alloc(576, "bpf_stack")
	if len(c.Data) != 576 || &c.Data[0] == &b.Data[0] {
		t.Error("a second Free handed bytes on again")
	}
	if v, _ := d.Load(b.BaseAddr+8, 8); v != 42 {
		t.Errorf("live allocation reads %#x after another Alloc, want 42", v)
	}
	// Another size does not take freed bytes.
	d.Free(c)
	if e := d.Alloc(64, "obj"); len(e.Data) != 64 {
		t.Errorf("64-byte allocation has %d bytes", len(e.Data))
	}
}

func TestManyAllocationsNonOverlapping(t *testing.T) {
	d := NewDomain()
	var allocs []*Allocation
	for i := 0; i < 200; i++ {
		allocs = append(allocs, d.Alloc(1+i%64, "obj"))
	}
	for i := 1; i < len(allocs); i++ {
		if allocs[i-1].End()+Redzone > allocs[i].BaseAddr {
			t.Fatalf("allocations %d and %d overlap or lack redzone", i-1, i)
		}
	}
	// Every allocation resolvable at its base and last byte.
	for _, a := range allocs {
		if d.Resolve(a.BaseAddr) != a || d.Resolve(a.End()-1) != a {
			t.Fatalf("allocation at %#x not resolvable", a.BaseAddr)
		}
	}
}

// Property: a checked store followed by a checked load inside any
// allocation returns the stored value.
func TestCheckedRoundTripProperty(t *testing.T) {
	d := NewDomain()
	a := d.Alloc(256, "obj")
	f := func(off uint8, val uint64) bool {
		o := uint64(off) % 249 // leave room for 8 bytes
		if rep := d.StoreChecked(a.BaseAddr+o, 8, val); rep != nil {
			return false
		}
		got, rep := d.LoadChecked(a.BaseAddr+o, 8)
		return rep == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReportError(t *testing.T) {
	rep := &Report{Kind: ReportOOB, Addr: 0x1234, Size: 8, Write: true, Tag: "map_value"}
	msg := rep.Error()
	if msg == "" || rep.Kind.String() != "slab-out-of-bounds" {
		t.Errorf("report formatting broken: %q", msg)
	}
}

func BenchmarkCheckAccess(b *testing.B) {
	d := NewDomain()
	var last *Allocation
	for i := 0; i < 1000; i++ {
		last = d.Alloc(64, "obj")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.CheckAccess(last.BaseAddr+8, 8, false)
	}
}
