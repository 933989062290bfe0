// Package helpers models the kernel's eBPF helper functions: the
// prototypes the verifier checks call sites against, the program-type and
// GPL gating, and runtime implementations that execute against the
// simulated kernel. Helper bodies are "instrumented kernel code" — their
// internal memory accesses are KASAN-checked and their lock acquisitions
// go through the locking validator, which is what makes indicator #2
// observable.
package helpers

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/kmem"
	"repro/internal/maps"
)

// ArgType describes what the verifier requires of one helper argument.
type ArgType int

// Argument types (a subset of the kernel's bpf_arg_type that covers the
// implemented helpers).
const (
	ArgNone ArgType = iota
	// ArgAnything accepts any initialized register.
	ArgAnything
	// ArgConstMapPtr requires a CONST_PTR_TO_MAP.
	ArgConstMapPtr
	// ArgMapKey requires a pointer to readable memory of the map's key
	// size. The map is taken from the preceding ArgConstMapPtr.
	ArgMapKey
	// ArgMapValue requires a pointer to readable memory of the map's
	// value size.
	ArgMapValue
	// ArgPtrToMem requires readable memory whose size is given by the
	// following ArgSize argument.
	ArgPtrToMem
	// ArgPtrToUninitMem requires writable memory (it will be fully
	// initialized by the helper) sized by the following ArgSize.
	ArgPtrToUninitMem
	// ArgSize requires a scalar with known positive bounds, the byte
	// size for the preceding memory argument.
	ArgSize
	// ArgScalar requires any scalar value.
	ArgScalar
	// ArgBTFTask requires a trusted pointer to task_struct.
	ArgBTFTask
	// ArgPtrToCtx requires the program's context pointer.
	ArgPtrToCtx
)

// RetType describes the verifier-visible return value of a helper.
type RetType int

// Return types.
const (
	RetInteger RetType = iota
	RetVoid
	// RetMapValueOrNull is a nullable pointer into the map value of the
	// map passed as ArgConstMapPtr.
	RetMapValueOrNull
	// RetBTFTask is a trusted, non-null pointer to task_struct.
	RetBTFTask
	// RetMemOrNull is a nullable pointer to a memory region whose size
	// is the constant passed in the helper's second argument
	// (bpf_ringbuf_reserve).
	RetMemOrNull
)

// Env is the execution environment helper implementations run against.
// The runtime package provides the concrete implementation.
type Env interface {
	// MapByAddr resolves a CONST_PTR_TO_MAP runtime value.
	MapByAddr(addr uint64) *maps.Map
	// ReadMem performs a KASAN-checked read of kernel memory, as
	// instrumented kernel code does. A failed check returns the
	// *kmem.Report as the error.
	ReadMem(addr uint64, size int) ([]byte, error)
	// WriteMem performs a KASAN-checked write.
	WriteMem(addr uint64, data []byte) error
	// AcquireLock acquires a lock class in the current context. If
	// contended is true the acquisition fires the contention_begin
	// tracepoint before the lock is taken, which is how the Figure 2
	// recursion arises. Lockdep violations and tracepoint recursion
	// are returned as errors.
	AcquireLock(class string, contended bool) error
	// ReleaseLock drops the most recent acquisition of class.
	ReleaseLock(class string)
	// FireTracepoint triggers the named tracepoint.
	FireTracepoint(name string) error
	// CurrentTaskAddr returns the address of the current task_struct.
	CurrentTaskAddr() uint64
	// SendSignal delivers a signal from the program's context. In
	// unsafe (NMI-like) contexts with the Bug6 knob armed this panics
	// the simulated kernel.
	SendSignal(sig uint64) error
	// Random returns a deterministic pseudo-random number.
	Random() uint64
	// Time returns monotonic nanoseconds.
	Time() uint64
	// CPU returns the current CPU index.
	CPU() int
	// RingbufReserve allocates a ring-buffer record and returns its
	// address (0 on failure).
	RingbufReserve(m *maps.Map, size int) uint64
	// RingbufCommit submits (or discards) the record at addr.
	RingbufCommit(addr uint64, discard bool)
	// ReadPacket copies size bytes from packet offset off into out,
	// returning false when out of range (bpf_skb_load_bytes).
	ReadPacket(off, size int) ([]byte, bool)
}

// PanicError models a kernel panic caused by a helper (e.g. the Bug #6
// signal-sending path).
type PanicError struct {
	Reason string
}

func (e *PanicError) Error() string {
	return "kernel panic: " + e.Reason
}

// Linux error numbers helpers return in-band.
const (
	ENOENT = 2
	EFAULT = 14
	EBUSY  = 16
	EINVAL = 22
	E2BIG  = 7
)

// Errno encodes -errno as the u64 register value helpers return.
func Errno(e int64) uint64 { return uint64(-e) }

// Impl is a helper's runtime body.
type Impl func(env Env, args [5]uint64) (uint64, error)

// Helper couples a prototype with its runtime implementation.
type Helper struct {
	ID   int32
	Name string
	Args []ArgType
	Ret  RetType
	// GPLOnly restricts the helper to GPL-compatible programs.
	GPLOnly bool
	// Tracing restricts the helper to tracing program types (kprobe,
	// tracepoint, perf_event, raw_tracepoint).
	Tracing bool
	// ContendedLock names a lock class the helper acquires under
	// contention during execution; the acquisition fires
	// contention_begin.
	ContendedLock string
	// AcquiresRef marks helpers whose pointer return must be released
	// before exit (ringbuf reservations).
	AcquiresRef bool
	// ReleasesRef marks helpers that consume such a reference via
	// their first argument.
	ReleasesRef bool
	Impl        Impl
}

// Helper IDs, kernel-accurate where the helper exists upstream.
const (
	MapLookupElem     int32 = 1
	MapUpdateElem     int32 = 2
	MapDeleteElem     int32 = 3
	KtimeGetNS        int32 = 5
	TracePrintk       int32 = 6
	GetPrandomU32     int32 = 7
	GetSmpProcessorID int32 = 8
	GetCurrentPidTgid int32 = 14
	GetCurrentUidGid  int32 = 15
	GetCurrentComm    int32 = 16
	GetCurrentTask    int32 = 35
	SpinLock          int32 = 93
	SpinUnlock        int32 = 94
	TailCall          int32 = 12
	MapPushElem       int32 = 87
	MapPopElem        int32 = 88
	MapPeekElem       int32 = 89
	SendSignal        int32 = 109
	ProbeReadKernel   int32 = 113
	RingbufOutput     int32 = 130
	GetCurrentTaskBTF int32 = 158
	TaskStorageGet    int32 = 156
	ProbeRead         int32 = 4
	SkbLoadBytes      int32 = 26
	PerfEventOutput   int32 = 25
	GetNumaNodeID     int32 = 42
	GetSocketUID      int32 = 47
	KtimeGetBootNS    int32 = 125
	RingbufReserve    int32 = 131
	RingbufSubmit     int32 = 132
	RingbufDiscard    int32 = 133
	Jiffies64         int32 = 118
)

// Sanitizer dispatch function IDs. These are the bpf_asan_* functions the
// BVF kernel patches add (§5); they live outside the normal helper id
// space and are emitted only by the sanitizer pass, so the verifier never
// sees them. The interpreter intercepts them before the registry lookup.
const (
	// AsanLoadBase + log2(size) checks a load of the given width; the
	// target address is passed in R1.
	AsanLoadBase int32 = 0x7f000000
	// AsanStoreBase + log2(size) checks a store.
	AsanStoreBase int32 = 0x7f000010
	// AsanRangeViolation reports that a runtime value escaped the
	// verifier's believed range (the alu_limit assertion, §4.2).
	AsanRangeViolation int32 = 0x7f000020
)

// AsanLoadID returns the checking function id for a load of size bytes.
func AsanLoadID(size int) int32 { return AsanLoadBase + sizeLog2(size) }

// AsanStoreID returns the checking function id for a store of size bytes.
func AsanStoreID(size int) int32 { return AsanStoreBase + sizeLog2(size) }

// IsAsanID reports whether id belongs to the sanitizer dispatch range and
// decodes it. kind is 'l' (load), 's' (store) or 'r' (range violation).
func IsAsanID(id int32) (kind byte, size int, ok bool) {
	switch {
	case id >= AsanLoadBase && id < AsanLoadBase+4:
		return 'l', 1 << uint(id-AsanLoadBase), true
	case id >= AsanStoreBase && id < AsanStoreBase+4:
		return 's', 1 << uint(id-AsanStoreBase), true
	case id == AsanRangeViolation:
		return 'r', 0, true
	}
	return 0, 0, false
}

func sizeLog2(size int) int32 {
	switch size {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	panic("helpers: invalid asan access size")
}

// TracingProgTypes is the set of program types treated as "tracing" for
// helper gating.
var TracingProgTypes = map[isa.ProgramType]bool{
	isa.ProgTypeKprobe:        true,
	isa.ProgTypeTracepoint:    true,
	isa.ProgTypePerfEvent:     true,
	isa.ProgTypeRawTracepoint: true,
}

// Registry holds the helper table plus the small amount of cross-call
// state some bug models need. One Registry belongs to one simulated
// kernel.
type Registry struct {
	byID map[int32]*Helper
	ids  []int32

	// irqWorkFlip alternates the Bug #10 lock order across calls.
	irqWorkFlip bool
	// Bug10Armed enables the irq_work lock-order bug in
	// bpf_task_storage_get.
	Bug10Armed bool
}

// ByID returns the helper with the given id, or nil.
func (r *Registry) ByID(id int32) *Helper { return r.byID[id] }

// IDs returns every registered helper id in ascending order.
func (r *Registry) IDs() []int32 { return append([]int32(nil), r.ids...) }

func (r *Registry) add(h *Helper) {
	r.byID[h.ID] = h
	r.ids = append(r.ids, h.ID)
}

// readMapKey fetches a map's key bytes from program-supplied memory.
func readMapKey(env Env, m *maps.Map, addr uint64) ([]byte, error) {
	if m.KeySize == 0 {
		return nil, nil
	}
	return env.ReadMem(addr, int(m.KeySize))
}

// writeComm is bpf_get_current_comm's body: it fills the size bytes at
// addr with the task name, NUL-padded or truncated. A negative size, which the
// verifier should never have let through, is reported as a wild write,
// the way ReadMem reports a negative read. The buffer is written a
// bounded chunk at a time, so an oversized size ends at the first byte
// the memory checks reject instead of allocating size bytes.
func writeComm(env Env, addr uint64, size int) error {
	if size < 0 {
		return &kmem.Report{Kind: kmem.ReportWild, Addr: addr, Size: size, Write: true}
	}
	var buf [64]byte
	copy(buf[:], "bvf-task")
	for off := 0; off < size; off += len(buf) {
		if err := env.WriteMem(addr+uint64(off), buf[:min(size-off, len(buf))]); err != nil {
			return err
		}
		buf = [64]byte{}
	}
	return nil
}

// NewRegistry builds the full helper table.
func NewRegistry() *Registry {
	r := &Registry{byID: make(map[int32]*Helper)}

	r.add(&Helper{
		ID: MapLookupElem, Name: "bpf_map_lookup_elem",
		Args: []ArgType{ArgConstMapPtr, ArgMapKey},
		Ret:  RetMapValueOrNull,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			m := env.MapByAddr(args[0])
			if m == nil {
				return Errno(EINVAL), nil
			}
			key, err := readMapKey(env, m, args[1])
			if err != nil {
				return 0, err
			}
			return m.LookupAddr(key), nil
		},
	})

	r.add(&Helper{
		ID: MapUpdateElem, Name: "bpf_map_update_elem",
		Args:          []ArgType{ArgConstMapPtr, ArgMapKey, ArgMapValue, ArgScalar},
		Ret:           RetInteger,
		ContendedLock: "hash_bucket_lock",
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			m := env.MapByAddr(args[0])
			if m == nil {
				return Errno(EINVAL), nil
			}
			key, err := readMapKey(env, m, args[1])
			if err != nil {
				return 0, err
			}
			val, err := env.ReadMem(args[2], int(m.ValueSize))
			if err != nil {
				return 0, err
			}
			if m.Type == maps.Hash {
				if err := env.AcquireLock("hash_bucket_lock", true); err != nil {
					return 0, err
				}
				defer env.ReleaseLock("hash_bucket_lock")
			}
			if err := m.Update(key, val, args[3]); err != nil {
				return Errno(EINVAL), nil
			}
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: MapDeleteElem, Name: "bpf_map_delete_elem",
		Args:          []ArgType{ArgConstMapPtr, ArgMapKey},
		Ret:           RetInteger,
		ContendedLock: "hash_bucket_lock",
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			m := env.MapByAddr(args[0])
			if m == nil {
				return Errno(EINVAL), nil
			}
			key, err := readMapKey(env, m, args[1])
			if err != nil {
				return 0, err
			}
			if m.Type == maps.Hash {
				if err := env.AcquireLock("hash_bucket_lock", true); err != nil {
					return 0, err
				}
				defer env.ReleaseLock("hash_bucket_lock")
			}
			if err := m.Delete(key); err != nil {
				return Errno(ENOENT), nil
			}
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: TailCall, Name: "bpf_tail_call",
		Args: []ArgType{ArgPtrToCtx, ArgConstMapPtr, ArgScalar},
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			// The interpreter intercepts successful tail calls; this
			// body is only reached on failure paths in unit tests.
			return Errno(ENOENT), nil
		},
	})

	r.add(&Helper{
		ID: KtimeGetNS, Name: "bpf_ktime_get_ns",
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return env.Time(), nil },
	})

	r.add(&Helper{
		ID: TracePrintk, Name: "bpf_trace_printk",
		Args:          []ArgType{ArgPtrToMem, ArgSize},
		Ret:           RetInteger,
		GPLOnly:       true,
		Tracing:       true,
		ContendedLock: "trace_printk_lock",
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			if _, err := env.ReadMem(args[0], int(int32(args[1]))); err != nil {
				return 0, err
			}
			// printk takes its internal lock and fires its own
			// tracepoint — the Bug #4 recursion path.
			if err := env.AcquireLock("trace_printk_lock", false); err != nil {
				return 0, err
			}
			defer env.ReleaseLock("trace_printk_lock")
			if err := env.FireTracepoint("bpf_trace_printk"); err != nil {
				return 0, err
			}
			return args[1], nil
		},
	})

	r.add(&Helper{
		ID: GetPrandomU32, Name: "bpf_get_prandom_u32",
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return env.Random() & 0xffffffff, nil },
	})

	r.add(&Helper{
		ID: GetSmpProcessorID, Name: "bpf_get_smp_processor_id",
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return uint64(env.CPU()), nil },
	})

	r.add(&Helper{
		ID: GetCurrentPidTgid, Name: "bpf_get_current_pid_tgid",
		Ret: RetInteger, Tracing: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return 1000<<32 | 1000, nil },
	})

	r.add(&Helper{
		ID: GetCurrentUidGid, Name: "bpf_get_current_uid_gid",
		Ret: RetInteger, Tracing: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return 0, nil },
	})

	r.add(&Helper{
		ID: GetCurrentComm, Name: "bpf_get_current_comm",
		Args: []ArgType{ArgPtrToUninitMem, ArgSize},
		Ret:  RetInteger, Tracing: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			return 0, writeComm(env, args[0], int(int32(args[1])))
		},
	})

	r.add(&Helper{
		ID: GetCurrentTask, Name: "bpf_get_current_task",
		Ret: RetInteger, Tracing: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return env.CurrentTaskAddr(), nil },
	})

	r.add(&Helper{
		ID: GetCurrentTaskBTF, Name: "bpf_get_current_task_btf",
		Ret: RetBTFTask, Tracing: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return env.CurrentTaskAddr(), nil },
	})

	r.add(&Helper{
		ID: MapPushElem, Name: "bpf_map_push_elem",
		Args: []ArgType{ArgConstMapPtr, ArgMapValue, ArgScalar},
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			m := env.MapByAddr(args[0])
			if m == nil {
				return Errno(EINVAL), nil
			}
			val, err := env.ReadMem(args[1], int(m.ValueSize))
			if err != nil {
				return 0, err
			}
			if err := m.Push(val); err != nil {
				return Errno(E2BIG), nil
			}
			return 0, nil
		},
	})

	popImpl := func(peek bool) Impl {
		return func(env Env, args [5]uint64) (uint64, error) {
			m := env.MapByAddr(args[0])
			if m == nil {
				return Errno(EINVAL), nil
			}
			val, err := m.Pop()
			if err != nil {
				return Errno(ENOENT), nil
			}
			if peek {
				// Put it back: peek semantics on top of Pop.
				defer m.Push(val)
			}
			if err := env.WriteMem(args[1], val); err != nil {
				return 0, err
			}
			return 0, nil
		}
	}
	r.add(&Helper{
		ID: MapPopElem, Name: "bpf_map_pop_elem",
		Args: []ArgType{ArgConstMapPtr, ArgPtrToUninitMem, ArgSize},
		Ret:  RetInteger,
		Impl: popImpl(false),
	})
	r.add(&Helper{
		ID: MapPeekElem, Name: "bpf_map_peek_elem",
		Args: []ArgType{ArgConstMapPtr, ArgPtrToUninitMem, ArgSize},
		Ret:  RetInteger,
		Impl: popImpl(true),
	})

	r.add(&Helper{
		ID: SendSignal, Name: "bpf_send_signal",
		Args: []ArgType{ArgScalar},
		Ret:  RetInteger, Tracing: true, GPLOnly: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			return 0, env.SendSignal(args[0])
		},
	})

	r.add(&Helper{
		ID: ProbeReadKernel, Name: "bpf_probe_read_kernel",
		Args: []ArgType{ArgPtrToUninitMem, ArgSize, ArgAnything},
		Ret:  RetInteger, Tracing: true, GPLOnly: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			n := int(int32(args[1]))
			data, err := env.ReadMem(args[2], n)
			if err != nil {
				// probe_read is exception-safe: a bad source
				// address yields -EFAULT, never a splat.
				return Errno(EFAULT), nil
			}
			if err := env.WriteMem(args[0], data); err != nil {
				return 0, err
			}
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: RingbufOutput, Name: "bpf_ringbuf_output",
		Args:          []ArgType{ArgConstMapPtr, ArgPtrToMem, ArgSize, ArgScalar},
		Ret:           RetInteger,
		ContendedLock: "rb_lock",
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			m := env.MapByAddr(args[0])
			if m == nil || m.Type != maps.RingBuf {
				return Errno(EINVAL), nil
			}
			data, err := env.ReadMem(args[1], int(int32(args[2])))
			if err != nil {
				return 0, err
			}
			if err := env.AcquireLock("rb_lock", true); err != nil {
				return 0, err
			}
			defer env.ReleaseLock("rb_lock")
			if err := m.RingbufOutput(data); err != nil {
				return Errno(E2BIG), nil
			}
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: SpinLock, Name: "bpf_spin_lock",
		Args:          []ArgType{ArgMapValue},
		Ret:           RetVoid,
		ContendedLock: "bpf_spin_lock",
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			return 0, env.AcquireLock("bpf_spin_lock", true)
		},
	})
	r.add(&Helper{
		ID: SpinUnlock, Name: "bpf_spin_unlock",
		Args: []ArgType{ArgMapValue},
		Ret:  RetVoid,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			env.ReleaseLock("bpf_spin_lock")
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: ProbeRead, Name: "bpf_probe_read",
		Args: []ArgType{ArgPtrToUninitMem, ArgSize, ArgAnything},
		Ret:  RetInteger, Tracing: true, GPLOnly: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			n := int(int32(args[1]))
			data, err := env.ReadMem(args[2], n)
			if err != nil {
				return Errno(EFAULT), nil
			}
			if err := env.WriteMem(args[0], data); err != nil {
				return 0, err
			}
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: SkbLoadBytes, Name: "bpf_skb_load_bytes",
		Args: []ArgType{ArgPtrToCtx, ArgScalar, ArgPtrToUninitMem, ArgSize},
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			n := int(int32(args[3]))
			data, ok := env.ReadPacket(int(int32(args[1])), n)
			if !ok {
				return Errno(EFAULT), nil
			}
			if err := env.WriteMem(args[2], data); err != nil {
				return 0, err
			}
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: PerfEventOutput, Name: "bpf_perf_event_output",
		Args:          []ArgType{ArgPtrToCtx, ArgConstMapPtr, ArgScalar, ArgPtrToMem, ArgSize},
		Ret:           RetInteger,
		GPLOnly:       true,
		ContendedLock: "perf_buf_lock",
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			if _, err := env.ReadMem(args[3], int(int32(args[4]))); err != nil {
				return 0, err
			}
			if err := env.AcquireLock("perf_buf_lock", true); err != nil {
				return 0, err
			}
			env.ReleaseLock("perf_buf_lock")
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: GetNumaNodeID, Name: "bpf_get_numa_node_id",
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return 0, nil },
	})

	r.add(&Helper{
		ID: GetSocketUID, Name: "bpf_get_socket_uid",
		Args: []ArgType{ArgPtrToCtx},
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return 1000, nil },
	})

	r.add(&Helper{
		ID: KtimeGetBootNS, Name: "bpf_ktime_get_boot_ns",
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return env.Time(), nil },
	})

	r.add(&Helper{
		ID: Jiffies64, Name: "bpf_jiffies64",
		Ret:  RetInteger,
		Impl: func(env Env, args [5]uint64) (uint64, error) { return env.Time() / 4000000, nil },
	})

	r.add(&Helper{
		ID: RingbufReserve, Name: "bpf_ringbuf_reserve",
		Args:        []ArgType{ArgConstMapPtr, ArgScalar, ArgScalar},
		Ret:         RetMemOrNull,
		AcquiresRef: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			m := env.MapByAddr(args[0])
			if m == nil {
				return 0, nil
			}
			return env.RingbufReserve(m, int(int32(args[1]))), nil
		},
	})

	r.add(&Helper{
		ID: RingbufSubmit, Name: "bpf_ringbuf_submit",
		Args:        []ArgType{ArgAnything, ArgScalar},
		Ret:         RetVoid,
		ReleasesRef: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			env.RingbufCommit(args[0], false)
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: RingbufDiscard, Name: "bpf_ringbuf_discard",
		Args:        []ArgType{ArgAnything, ArgScalar},
		Ret:         RetVoid,
		ReleasesRef: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			env.RingbufCommit(args[0], true)
			return 0, nil
		},
	})

	r.add(&Helper{
		ID: TaskStorageGet, Name: "bpf_task_storage_get",
		Args: []ArgType{ArgConstMapPtr, ArgBTFTask, ArgScalar, ArgScalar},
		Ret:  RetMapValueOrNull, Tracing: true,
		Impl: func(env Env, args [5]uint64) (uint64, error) {
			m := env.MapByAddr(args[0])
			if m == nil {
				return 0, nil
			}
			// Bug #10: the storage path queues irq_work while holding
			// the storage lock, but the irq_work path takes the locks
			// in the opposite order. Alternate orders across calls so
			// the validator observes the inversion.
			if r.Bug10Armed {
				first, second := "task_storage_lock", "irq_work_lock"
				if r.irqWorkFlip {
					first, second = second, first
				}
				r.irqWorkFlip = !r.irqWorkFlip
				if err := env.AcquireLock(first, false); err != nil {
					return 0, err
				}
				if err := env.AcquireLock(second, false); err != nil {
					env.ReleaseLock(first)
					return 0, err
				}
				env.ReleaseLock(second)
				env.ReleaseLock(first)
			}
			var key [8]byte
			return m.LookupAddr(key[:maxInt(int(m.KeySize), 0)]), nil
		},
	})

	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AllowedFor reports whether the helper may be called from the given
// program type with the given GPL compatibility.
func (h *Helper) AllowedFor(t isa.ProgramType, gpl bool) error {
	if h.GPLOnly && !gpl {
		return fmt.Errorf("helper %s is GPL-only", h.Name)
	}
	if h.Tracing && !TracingProgTypes[t] {
		return fmt.Errorf("helper %s not available to %s programs", h.Name, t)
	}
	return nil
}
