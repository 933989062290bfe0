package helpers

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/kmem"
)

func TestRegistryCompleteness(t *testing.T) {
	r := NewRegistry()
	ids := r.IDs()
	if len(ids) < 25 {
		t.Fatalf("registry has only %d helpers", len(ids))
	}
	seen := map[int32]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate helper id %d", id)
		}
		seen[id] = true
		h := r.ByID(id)
		if h == nil || h.Name == "" || h.Impl == nil {
			t.Errorf("helper %d incomplete: %+v", id, h)
		}
		if len(h.Args) > 5 {
			t.Errorf("helper %s has %d args", h.Name, len(h.Args))
		}
		// Every ArgPtrToMem/ArgPtrToUninitMem must be followed by
		// ArgSize so the verifier can bound the access.
		for i, at := range h.Args {
			if at == ArgPtrToMem || at == ArgPtrToUninitMem {
				if i+1 >= len(h.Args) || h.Args[i+1] != ArgSize {
					t.Errorf("helper %s: mem arg %d lacks a size arg", h.Name, i)
				}
			}
		}
	}
	if r.ByID(424242) != nil {
		t.Error("unknown id resolved")
	}
}

func TestGating(t *testing.T) {
	r := NewRegistry()
	printk := r.ByID(TracePrintk)
	if err := printk.AllowedFor(isa.ProgTypeKprobe, true); err != nil {
		t.Errorf("printk from GPL kprobe: %v", err)
	}
	if err := printk.AllowedFor(isa.ProgTypeKprobe, false); err == nil {
		t.Error("printk allowed without GPL")
	}
	if err := printk.AllowedFor(isa.ProgTypeSocketFilter, true); err == nil {
		t.Error("printk allowed from socket filter")
	}
	lookup := r.ByID(MapLookupElem)
	for _, pt := range isa.AllProgramTypes {
		if err := lookup.AllowedFor(pt, false); err != nil {
			t.Errorf("map_lookup_elem gated from %s: %v", pt, err)
		}
	}
}

func TestAsanIDCodec(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		kind, got, ok := IsAsanID(AsanLoadID(size))
		if !ok || kind != 'l' || got != size {
			t.Errorf("load size %d: kind=%c size=%d ok=%v", size, kind, got, ok)
		}
		kind, got, ok = IsAsanID(AsanStoreID(size))
		if !ok || kind != 's' || got != size {
			t.Errorf("store size %d: kind=%c size=%d ok=%v", size, kind, got, ok)
		}
	}
	if kind, _, ok := IsAsanID(AsanRangeViolation); !ok || kind != 'r' {
		t.Error("range violation id not recognized")
	}
	if _, _, ok := IsAsanID(MapLookupElem); ok {
		t.Error("ordinary helper id matched asan range")
	}
	defer func() {
		if recover() == nil {
			t.Error("AsanLoadID(3) did not panic")
		}
	}()
	AsanLoadID(3)
}

func TestErrno(t *testing.T) {
	if got := Errno(ENOENT); int64(got) != -2 {
		t.Errorf("Errno(ENOENT) = %d", int64(got))
	}
}

func TestRefFlagsConsistent(t *testing.T) {
	r := NewRegistry()
	res := r.ByID(RingbufReserve)
	if !res.AcquiresRef || res.Ret != RetMemOrNull {
		t.Errorf("ringbuf_reserve flags: %+v", res)
	}
	for _, id := range []int32{RingbufSubmit, RingbufDiscard} {
		h := r.ByID(id)
		if !h.ReleasesRef || h.Ret != RetVoid {
			t.Errorf("%s flags: %+v", h.Name, h)
		}
	}
	// No other helper releases references.
	for _, id := range r.IDs() {
		h := r.ByID(id)
		if h.ReleasesRef && id != RingbufSubmit && id != RingbufDiscard {
			t.Errorf("unexpected ReleasesRef on %s", h.Name)
		}
	}
}

// commEnv is an Env whose only working method is WriteMem: writes land in
// a buffer of mapped bytes at base, and a write past its end fails with
// an out-of-bounds report, as KASAN would.
type commEnv struct {
	Env
	base     uint64
	mem      []byte
	largest  int // longest single WriteMem
	attempts int
}

func (e *commEnv) WriteMem(addr uint64, data []byte) error {
	e.attempts++
	e.largest = max(e.largest, len(data))
	off := int(addr - e.base)
	if addr < e.base || off+len(data) > len(e.mem) {
		return &kmem.Report{Kind: kmem.ReportOOB, Addr: addr, Size: len(data), Write: true}
	}
	copy(e.mem[off:], data)
	return nil
}

// TestGetCurrentCommSize pins bpf_get_current_comm's handling of the size
// argument. A size the verifier wrongly let through must become a KASAN
// report, never a harness panic or a huge allocation: a negative size is
// a wild write that touches no memory, and a size far past the buffer
// stops at the first rejected chunk. A valid size gets the NUL-padded
// task name.
func TestGetCurrentCommSize(t *testing.T) {
	comm := NewRegistry().ByID(GetCurrentComm).Impl
	const base = 0x1000
	call := func(size int64) (*commEnv, error) {
		env := &commEnv{base: base, mem: bytes.Repeat([]byte{0xaa}, 32)}
		_, err := comm(env, [5]uint64{base, uint64(size)})
		return env, err
	}

	env, err := call(-24)
	var rep *kmem.Report
	if !errors.As(err, &rep) || rep.Kind != kmem.ReportWild || !rep.Write || rep.Size != -24 {
		t.Fatalf("size -24: err = %v, want a wild-write report of size -24", err)
	}
	if env.attempts != 0 {
		t.Errorf("size -24: %d writes attempted, want none", env.attempts)
	}

	env, err = call(1<<31 - 1)
	if !errors.As(err, &rep) || rep.Kind != kmem.ReportOOB {
		t.Fatalf("size 2^31-1: err = %v, want the out-of-bounds report", err)
	}
	if env.attempts != 1 || env.largest > 64 {
		t.Errorf("size 2^31-1: %d writes, largest %d bytes; want one bounded write", env.attempts, env.largest)
	}

	env, err = call(12)
	if err != nil {
		t.Fatalf("size 12: %v", err)
	}
	want := append([]byte("bvf-task\x00\x00\x00\x00"), bytes.Repeat([]byte{0xaa}, 20)...)
	if !bytes.Equal(env.mem, want) {
		t.Errorf("size 12 wrote %q, want %q", env.mem, want)
	}
}
