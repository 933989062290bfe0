package verifier

// This file is the analogue of the kernel's tools/testing/selftests/bpf
// verifier tables — the "test engine" the paper describes eBPF maintainers
// using (§2, Verifier Testing): a large corpus of hand-written programs,
// each annotated with the expected verdict and, for rejections, a message
// fragment. Programs are written in the repository's assembly dialect.

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bugs"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/maps"
)

type selftest struct {
	name string
	src  string
	// progType defaults to socket_filter.
	progType isa.ProgramType
	attachTo string
	nonGPL   bool
	// wantErr is empty for expected acceptance, otherwise a fragment of
	// the expected rejection message.
	wantErr string
	// bugs arms knobs for this case only.
	bugs bugs.Set
	// needsKfuncs marks cases to skip on pre-kfunc configs.
	noKfuncs bool
}

// The shared map fixture: fd 3 = array(val 64), fd 4 = hash(key 8, val
// 48), fd 5 = queue(val 16), fd 6 = prog_array, fd 7 = ringbuf.
func selftestKernel(t testing.TB, b bugs.Set) (*Config, func()) {
	t.Helper()
	k := newTestKernel(t)
	k.addMap(t, 3, maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 4, Name: "arr"})
	k.addMap(t, 4, maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 8, Name: "hash"})
	k.addMap(t, 5, maps.Spec{Type: maps.Queue, ValueSize: 16, MaxEntries: 4, Name: "q"})
	k.addMap(t, 6, maps.Spec{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 2, Name: "jt"})
	k.addMap(t, 7, maps.Spec{Type: maps.RingBuf, MaxEntries: 64, Name: "rb"})
	cfg := k.config(b)
	return cfg, func() {}
}

var selftests = []selftest{
	// ----- basic structural and register rules -----
	{name: "minimal", src: "r0 = 0\nexit"},
	{name: "uninit read", src: "r0 = r5\nexit", wantErr: "!read_ok"},
	{name: "uninit arg to helper", src: "call #5\nr1 += r0\nr0 = r1\nexit", wantErr: "!read_ok"},
	{name: "no r0 at exit", src: "r6 = 1\nexit", wantErr: "R0 !read_ok"},
	{name: "fp write", src: "r10 = 0\nexit", wantErr: "frame pointer"},
	{name: "return pointer", src: "r0 = r10\nexit", wantErr: "leaks addr"},
	{name: "return ctx", src: "r0 = r1\nexit", wantErr: "leaks addr"},
	{name: "fallthrough after body", src: "r0 = 0\nif r0 == 1 goto +1\nexit\nexit"},

	// ----- stack -----
	{name: "stack store load", src: `
		*(u64 *)(r10 -8) = 7
		r0 = *(u64 *)(r10 -8)
		exit`},
	{name: "stack uninit read", src: "r0 = *(u64 *)(r10 -8)\nexit", wantErr: "uninitialized"},
	{name: "stack oob low", src: "*(u64 *)(r10 -520) = 0\nr0 = 0\nexit", wantErr: "stack"},
	{name: "stack oob high", src: "*(u64 *)(r10 -4) = 0\nr0 = 0\nexit", wantErr: "stack"},
	{name: "stack positive off", src: "*(u64 *)(r10 8) = 0\nr0 = 0\nexit", wantErr: "stack"},
	{name: "spill fill ctx", src: `
		*(u64 *)(r10 -8) = r1
		r2 = *(u64 *)(r10 -8)
		r0 = *(u32 *)(r2 0)
		exit`},
	{name: "partial spill read", src: `
		*(u64 *)(r10 -8) = r1
		r0 = *(u32 *)(r10 -8)
		exit`},
	{name: "misaligned wide stack read ok", src: `
		*(u64 *)(r10 -8) = 1
		*(u64 *)(r10 -16) = 2
		r0 = *(u64 *)(r10 -12)
		exit`},
	{name: "derived stack pointer", src: `
		r2 = r10
		r2 += -16
		*(u32 *)(r2 4) = 9
		r0 = *(u32 *)(r10 -12)
		exit`},
	{name: "variable stack offset", src: `
		r2 = r10
		r3 = *(u32 *)(r1 0)
		r3 &= 7
		r2 += r3
		r0 = 0
		exit`, wantErr: "variable offset"},

	// ----- context access -----
	{name: "ctx read len", src: "r0 = *(u32 *)(r1 0)\nexit"},
	{name: "ctx read oob", src: "r0 = *(u32 *)(r1 2000)\nexit", wantErr: "bpf_context"},
	{name: "ctx negative off", src: "r0 = *(u32 *)(r1 -4)\nexit", wantErr: "bpf_context"},
	{name: "ctx write readonly", src: `
		r2 = 1
		*(u32 *)(r1 0) = r2
		r0 = 0
		exit`, wantErr: "cannot write"},
	{name: "ctx write cb", src: `
		r2 = 1
		*(u32 *)(r1 40) = r2
		r0 = 0
		exit`},
	{name: "ctx partial pointer read", src: "r0 = *(u32 *)(r1 24)\nexit", wantErr: "bpf_context"},
	{name: "ctx ptr arithmetic const", src: `
		r2 = r1
		r2 += 4
		r0 = *(u32 *)(r2 0)
		exit`},
	{name: "ctx ptr arithmetic var", src: `
		r2 = r1
		r3 = *(u32 *)(r1 0)
		r3 &= 3
		r2 += r3
		r0 = 0
		exit`, wantErr: "variable offset"},

	// ----- maps -----
	{name: "lookup deref unchecked", src: `
		r1 = map_fd(3)
		*(u32 *)(r10 -4) = 0
		r2 = r10
		r2 += -4
		call #1
		r0 = *(u64 *)(r0 0)
		exit`, wantErr: "map_value_or_null"},
	{name: "lookup deref checked", src: `
		r1 = map_fd(3)
		*(u32 *)(r10 -4) = 0
		r2 = r10
		r2 += -4
		call #1
		if r0 != 0 goto use
		r0 = 0
		exit
	use:	r0 = *(u64 *)(r0 56)
		exit`},
	{name: "map value oob", src: `
		r1 = map_fd(3)
		*(u32 *)(r10 -4) = 0
		r2 = r10
		r2 += -4
		call #1
		if r0 != 0 goto use
		r0 = 0
		exit
	use:	r0 = *(u64 *)(r0 60)
		exit`, wantErr: "map value"},
	{name: "map value negative", src: `
		r1 = map_fd(3)
		*(u32 *)(r10 -4) = 0
		r2 = r10
		r2 += -4
		call #1
		if r0 != 0 goto use
		r0 = 0
		exit
	use:	r0 = *(u64 *)(r0 -8)
		exit`, wantErr: "allowed memory range"},
	{name: "direct map value load", src: `
		r6 = map_value(fd=3 off=16)
		r0 = *(u32 *)(r6 0)
		exit`},
	{name: "direct map value oob off", src: `
		r6 = map_value(fd=3 off=100)
		r0 = 0
		exit`, wantErr: "direct value offset"},
	{name: "stale map fd", src: `
		r1 = map_fd(99)
		r0 = 0
		exit`, wantErr: "not pointing to valid"},
	{name: "bounded var map offset", src: `
		r6 = map_value(fd=3 off=0)
		r7 = *(u32 *)(r1 0)
		r7 &= 31
		r6 += r7
		r0 = *(u8 *)(r6 0)
		exit`},
	{name: "unbounded var map offset", src: `
		r6 = map_value(fd=3 off=0)
		*(u64 *)(r10 -8) = 77
		r7 = *(u64 *)(r10 -8)
		r6 += r7
		r0 = *(u8 *)(r6 0)
		exit`, wantErr: "unbounded"},
	{name: "bounded but overflowing offset", src: `
		r6 = map_value(fd=3 off=0)
		r7 = *(u32 *)(r1 0)
		r7 &= 63
		r6 += r7
		r0 = *(u64 *)(r6 0)
		exit`, wantErr: "map value"},
	{name: "map ptr arithmetic", src: `
		r6 = map_fd(3)
		r6 += 8
		r0 = 0
		exit`, wantErr: "pointer arithmetic"},
	{name: "branch-bounded map offset", src: `
		r6 = map_value(fd=3 off=0)
		r7 = *(u32 *)(r1 0)
		if r7 > 56 goto out
		r6 += r7
		r0 = *(u8 *)(r6 0)
		exit
	out:	r0 = 0
		exit`},

	// ----- arithmetic -----
	{name: "div by zero imm", src: "r0 = 1\nr0 /= 0\nexit", wantErr: "division by zero"},
	{name: "mod by zero imm", src: "r0 = 1\nr0 %= 0\nexit", wantErr: "division by zero"},
	{name: "div by zero reg ok", src: "r0 = 1\nr2 = 0\nr0 /= r2\nexit"},
	{name: "oversize shift 64", src: "r0 = 1\nr0 <<= 64\nexit", wantErr: "shift"},
	{name: "oversize shift 32", src: "w0 = 1\nw0 >>= 32\nexit", wantErr: "shift"},
	{name: "pointer mul", src: "r2 = r10\nr2 *= 2\nr0 = 0\nexit", wantErr: "prohibited"},
	{name: "pointer or", src: "r2 = r10\nr2 |= 1\nr0 = 0\nexit", wantErr: "prohibited"},
	{name: "pointer 32bit add", src: "r2 = r10\nw2 += 4\nr0 = 0\nexit", wantErr: "32-bit pointer arithmetic"},
	{name: "ptr minus ptr same obj", src: `
		r2 = r10
		r3 = r10
		r3 += -8
		r2 -= r3
		r0 = r2
		exit`},
	{name: "ptr plus ptr", src: "r2 = r10\nr3 = r10\nr2 += r3\nr0 = 0\nexit", wantErr: "prohibited"},
	{name: "scalar plus ptr commutes", src: `
		r2 = 8
		r3 = r10
		r2 += r3
		r0 = *(u64 *)(r2 -16)
		exit`, wantErr: "uninitialized"},
	{name: "neg pointer", src: "r2 = r10\nr2 = -r2\nr0 = 0\nexit", wantErr: "negation"},
	{name: "bswap pointer", src: "r2 = r10\nr2 = be64 r2\nr0 = 0\nexit", wantErr: "byte swap"},

	// ----- jumps and loops -----
	{name: "dead branch not explored", src: `
		r0 = 5
		if r0 == 5 goto ok
		r0 = *(u64 *)(r9 0)
	ok:	exit`},
	{name: "bounded loop", src: `
		r6 = 0
		r0 = 0
	loop:	r6 += 1
		if r6 < 10 goto loop
		exit`},
	{name: "infinite ja loop", src: `
		r0 = 0
	loop:	goto loop`, wantErr: "infinite loop"},
	{name: "infinite cond loop", src: `
		r0 = 0
		r6 = 0
	loop:	r6 &= 1
		if r6 < 10 goto loop
		exit`, wantErr: "infinite loop"},
	{name: "jset refinement", src: `
		r6 = *(u32 *)(r1 0)
		if r6 & 0xffffffc0 goto out
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit
	out:	r0 = 0
		exit`},
	{name: "jmp32 bounds", src: `
		r6 = *(u32 *)(r1 0)
		if w6 > 31 goto out
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit
	out:	r0 = 0
		exit`},
	{name: "signed bounds both sides", src: `
		r6 = *(u32 *)(r1 0)
		if r6 s< 0 goto out
		if r6 s> 31 goto out
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit
	out:	r0 = 0
		exit`},
	{name: "lower bound alone insufficient", src: `
		r6 = *(u32 *)(r1 0)
		if r6 > 5 goto use
		r0 = 0
		exit
	use:	r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`, wantErr: "unbounded"},

	// ----- helpers -----
	{name: "unknown helper", src: "call #9999\nexit", wantErr: "invalid func"},
	{name: "helper clobbers r1-r5", src: `
		r2 = 7
		call #5
		r0 = r2
		exit`, wantErr: "!read_ok"},
	{name: "helper wrong arg type", src: `
		r1 = 0
		r2 = r10
		r2 += -8
		*(u64 *)(r10 -8) = 0
		call #1
		r0 = 0
		exit`, wantErr: "map_ptr"},
	{name: "helper key uninit", src: `
		r1 = map_fd(3)
		r2 = r10
		r2 += -8
		call #1
		r0 = 0
		exit`, wantErr: "stack"},
	{name: "queue pop into stack", src: `
		r1 = map_fd(5)
		r2 = r10
		r2 += -16
		r3 = 16
		call #88
		r0 = 0
		exit`},
	{name: "ringbuf output", src: `
		r1 = map_fd(7)
		*(u64 *)(r10 -8) = 1
		r2 = r10
		r2 += -8
		r3 = 8
		r4 = 0
		call #130
		exit`},
	{name: "gpl only helper non-gpl", nonGPL: true, progType: isa.ProgTypeKprobe, src: `
		r1 = r10
		r1 += -8
		*(u64 *)(r10 -8) = 0
		r2 = 8
		call #6
		exit`, wantErr: "GPL"},
	{name: "tracing helper from socket filter", src: "call #14\nexit", wantErr: "not available"},
	{name: "tail call ok", src: `
		r2 = map_fd(6)
		r3 = 0
		call #12
		r0 = 0
		exit`},
	{name: "tail call bad map", src: `
		r2 = map_fd(3)
		r3 = 0
		call #12
		r0 = 0
		exit`, wantErr: "cannot pass map_type"},
	{name: "lookup on prog array", src: `
		r1 = map_fd(6)
		*(u32 *)(r10 -4) = 0
		r2 = r10
		r2 += -4
		call #1
		r0 = 0
		exit`, wantErr: "cannot pass map_type"},
	{name: "tail call ctx arg not ctx", src: `
		r1 = 0
		r2 = map_fd(6)
		r3 = 0
		call #12
		r0 = 0
		exit`, wantErr: "expected=ctx"},

	// ----- packets (socket filter ctx) -----
	{name: "pkt access unchecked", src: `
		r2 = *(u64 *)(r1 24)
		r0 = *(u8 *)(r2 0)
		exit`, wantErr: "invalid access to packet"},
	{name: "pkt access checked", src: `
		r2 = *(u64 *)(r1 24)
		r3 = *(u64 *)(r1 32)
		r4 = r2
		r4 += 4
		if r4 > r3 goto out
		r0 = *(u8 *)(r2 3)
		exit
	out:	r0 = 0
		exit`},
	{name: "pkt access past checked range", src: `
		r2 = *(u64 *)(r1 24)
		r3 = *(u64 *)(r1 32)
		r4 = r2
		r4 += 4
		if r4 > r3 goto out
		r0 = *(u8 *)(r2 4)
		exit
	out:	r0 = 0
		exit`, wantErr: "invalid access to packet"},
	{name: "pkt write on socket filter", src: `
		r2 = *(u64 *)(r1 24)
		r3 = *(u64 *)(r1 32)
		r4 = r2
		r4 += 2
		if r4 > r3 goto out
		*(u8 *)(r2 0) = 7
	out:	r0 = 0
		exit`, wantErr: "cannot write into packet"},
	{name: "pkt end arithmetic", src: `
		r3 = *(u64 *)(r1 32)
		r3 += 4
		r0 = 0
		exit`, wantErr: "prohibited"},
	{name: "pkt reversed compare", src: `
		r2 = *(u64 *)(r1 24)
		r3 = *(u64 *)(r1 32)
		r4 = r2
		r4 += 2
		if r3 >= r4 goto use
		r0 = 0
		exit
	use:	r0 = *(u8 *)(r2 1)
		exit`},

	// ----- atomics -----
	{name: "atomic on stack", src: `
		*(u64 *)(r10 -8) = 5
		r2 = r10
		r2 += -8
		r3 = 3
		lock *(u64 *)(r2 0) += r3
		r0 = *(u64 *)(r10 -8)
		exit`},
	{name: "atomic on scalar", src: `
		r2 = 5
		r3 = 3
		lock *(u64 *)(r2 0) += r3
		r0 = 0
		exit`, wantErr: "scalar"},
	{name: "atomic on ctx", src: `
		r3 = 3
		lock *(u64 *)(r1 0) += r3
		r0 = 0
		exit`, wantErr: "atomic"},
	{name: "cmpxchg needs r0", src: `
		*(u64 *)(r10 -8) = 5
		r2 = r10
		r2 += -8
		r3 = 3
		lock *(u64 *)(r2 0) cmpxchg r3
		exit`, wantErr: "!read_ok"},
	{name: "fetch clobbers src", src: `
		*(u64 *)(r10 -8) = 5
		r2 = r10
		r2 += -8
		r3 = 3
		lock *(u64 *)(r2 0) +=fetch r3
		r0 = r3
		exit`},

	// ----- bpf-to-bpf calls -----
	{name: "pseudo call", src: `
		r1 = 20
		call pc+1
		exit
		r0 = r1
		r0 *= 2
		exit`},
	{name: "callee uninit r0", src: `
		call pc+1
		exit
		r6 = 0
		exit`, wantErr: "R0 !read_ok"},
	{name: "caller r6 preserved", src: `
		r6 = 9
		r1 = 1
		call pc+2
		r0 += r6
		exit
		r0 = r1
		exit`},

	// ----- kfuncs -----
	{name: "unknown kfunc", progType: isa.ProgTypeKprobe, src: "call kfunc#9999\nr0 = 0\nexit",
		wantErr: "not allowed", noKfuncs: true},
	{name: "kfunc leak ref", progType: isa.ProgTypeKprobe, noKfuncs: true, src: `
		r1 = 1000
		call kfunc#102
		r0 = 0
		exit`, wantErr: "reference"},
	{name: "kfunc acquire release", progType: isa.ProgTypeKprobe, noKfuncs: true, src: `
		r1 = 1000
		call kfunc#102
		if r0 != 0 goto rel
		r0 = 0
		exit
	rel:	r1 = r0
		call kfunc#101
		r0 = 0
		exit`},
	{name: "kfunc release unowned", progType: isa.ProgTypeKprobe, noKfuncs: true, src: `
		call kfunc#103
		r1 = 1000
		call kfunc#102
		if r0 != 0 goto rel
		r0 = 0
		exit
	rel:	r1 = r0
		call kfunc#101
		r1 = r0
		call kfunc#101
		r0 = 0
		exit`, wantErr: "expected"},

	// ----- btf pointers (raw tracepoint ctx) -----
	{name: "btf field read", progType: isa.ProgTypeRawTracepoint, src: `
		r6 = *(u64 *)(r1 0)
		r0 = *(u32 *)(r6 8)
		exit`},
	{name: "btf oob read", progType: isa.ProgTypeRawTracepoint, src: `
		r6 = *(u64 *)(r1 0)
		r0 = *(u64 *)(r6 256)
		exit`, wantErr: "outside struct bounds"},
	{name: "btf write", progType: isa.ProgTypeRawTracepoint, src: `
		r6 = *(u64 *)(r1 0)
		*(u64 *)(r6 0) = 1
		r0 = 0
		exit`, wantErr: "read"},
	{name: "btf pointer chase", progType: isa.ProgTypeRawTracepoint, src: `
		r6 = *(u64 *)(r1 0)
		r7 = *(u64 *)(r6 64)
		r0 = *(u32 *)(r7 8)
		exit`},
	{name: "btf straddling fields", progType: isa.ProgTypeRawTracepoint, src: `
		r6 = *(u64 *)(r1 0)
		r0 = *(u64 *)(r6 10)
		exit`, wantErr: "straddles"},

	// ----- ringbuf reservations -----
	{name: "ringbuf reserve submit", src: `
		r1 = map_fd(7)
		r2 = 16
		r3 = 0
		call #131
		if r0 != 0 goto fill
		r0 = 0
		exit
	fill:	*(u64 *)(r0 8) = 7
		r1 = r0
		r2 = 0
		call #132
		r0 = 0
		exit`},
	{name: "ringbuf reserve leak", src: `
		r1 = map_fd(7)
		r2 = 16
		r3 = 0
		call #131
		r0 = 0
		exit`, wantErr: "reference"},
	{name: "ringbuf record oob", src: `
		r1 = map_fd(7)
		r2 = 16
		r3 = 0
		call #131
		if r0 != 0 goto fill
		r0 = 0
		exit
	fill:	*(u64 *)(r0 12) = 7
		r1 = r0
		r2 = 0
		call #132
		r0 = 0
		exit`, wantErr: "invalid access to memory"},
	{name: "ringbuf submit unchecked", src: `
		r1 = map_fd(7)
		r2 = 16
		r3 = 0
		call #131
		r1 = r0
		r2 = 0
		call #132
		r0 = 0
		exit`, wantErr: "null-checked"},
	{name: "ringbuf variable size", src: `
		r6 = *(u32 *)(r1 0)
		r1 = map_fd(7)
		r2 = r6
		r3 = 0
		call #131
		r0 = 0
		exit`, wantErr: "constant"},
	{name: "ringbuf submit twice", src: `
		r1 = map_fd(7)
		r2 = 8
		r3 = 0
		call #131
		if r0 != 0 goto fill
		r0 = 0
		exit
	fill:	r6 = r0
		r1 = r6
		r2 = 0
		call #132
		r1 = r6
		r2 = 0
		call #132
		r0 = 0
		exit`, wantErr: "!read_ok"},

	// ----- misc helpers -----
	{name: "skb_load_bytes", src: `
		r2 = 0
		r3 = r10
		r3 += -8
		r4 = 8
		call #26
		exit`},
	{name: "perf_event_output", src: `
		r2 = map_fd(3)
		r3 = 0
		*(u64 *)(r10 -8) = 1
		r4 = r10
		r4 += -8
		r5 = 8
		call #25
		exit`},

	// ----- attach restrictions (fixed configs) -----
	{name: "printk on own tracepoint", progType: isa.ProgTypeKprobe, attachTo: "bpf_trace_printk", src: `
		*(u64 *)(r10 -8) = 65
		r1 = r10
		r1 += -8
		r2 = 8
		call #6
		r0 = 0
		exit`, wantErr: "trace_printk"},
	{name: "lock helper on contention_begin", progType: isa.ProgTypeKprobe, attachTo: "contention_begin", src: `
		r1 = map_fd(4)
		*(u64 *)(r10 -8) = 0
		r2 = r10
		r2 += -8
		*(u64 *)(r10 -16) = 0
		r3 = r10
		r3 += -16
		r4 = 0
		call #2
		r0 = 0
		exit`, wantErr: "contention_begin"},
	{name: "send signal from perf", progType: isa.ProgTypePerfEvent, src: `
		r1 = 9
		call #109
		r0 = 0
		exit`, wantErr: "NMI"},

	// ----- 32-bit subregister bounds -----
	// w-register writes zero-extend: the verifier must track the 32-bit
	// subrange (tnum WithSubreg/ClearSubreg) and derive 64-bit bounds
	// from it, without trusting stale upper-half knowledge.
	{name: "w mov zero extends", src: `
		r6 = -1
		w6 = 1
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 1)
		exit`},
	{name: "w mov truncates negative", src: `
		w6 = -1
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`, wantErr: "pointer offset overflow"},
	{name: "w and bounds subreg", src: `
		r6 = *(u32 *)(r1 0)
		w6 &= 31
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`},
	{name: "w add wraps subreg to zero", src: `
		w6 = -1
		w6 += 1
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u64 *)(r7 0)
		exit`},
	{name: "64-bit add after subreg bound overflows", src: `
		r6 = *(u32 *)(r1 0)
		w6 &= 15
		r6 += 56
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`, wantErr: "map value"},
	{name: "64-bit add after subreg bound fits", src: `
		r6 = *(u32 *)(r1 0)
		w6 &= 15
		r6 += 48
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`},
	{name: "jmp32 leaves upper half unbounded", src: `
		r6 = *(u32 *)(r1 0)
		r6 <<= 32
		r7 = *(u32 *)(r1 4)
		r6 |= r7
		if w6 > 31 goto out
		r8 = map_value(fd=3 off=0)
		r8 += r6
		r0 = *(u8 *)(r8 0)
		exit
	out:	r0 = 0
		exit`, wantErr: "unbounded"},
	{name: "jmp64 bound covers subreg", src: `
		r6 = *(u32 *)(r1 0)
		if r6 > 31 goto out
		r8 = map_value(fd=3 off=0)
		r8 += r6
		r0 = *(u8 *)(r8 0)
		exit
	out:	r0 = 0
		exit`},

	// ----- narrow loads zero-extend -----
	{name: "u8 load bounded 255 still too wide", src: `
		r6 = *(u32 *)(r1 0)
		*(u64 *)(r10 -8) = r6
		r7 = *(u8 *)(r10 -8)
		r8 = map_value(fd=3 off=0)
		r8 += r7
		r0 = *(u8 *)(r8 0)
		exit`, wantErr: "map value"},
	{name: "u8 load branch bounded", src: `
		r6 = *(u32 *)(r1 0)
		*(u64 *)(r10 -8) = r6
		r7 = *(u8 *)(r10 -8)
		if r7 > 63 goto out
		r8 = map_value(fd=3 off=0)
		r8 += r7
		r0 = *(u8 *)(r8 0)
		exit
	out:	r0 = 0
		exit`},
	{name: "u16 load bounded 65535", src: `
		r6 = *(u32 *)(r1 0)
		*(u64 *)(r10 -8) = r6
		r7 = *(u16 *)(r10 -8)
		r8 = map_value(fd=3 off=0)
		r8 += r7
		r0 = *(u8 *)(r8 0)
		exit`, wantErr: "map value"},
	{name: "narrow load known non-negative", src: `
		r6 = *(u32 *)(r1 0)
		*(u64 *)(r10 -8) = r6
		r7 = *(u8 *)(r10 -8)
		if r7 s< 0 goto bad
		r0 = 0
		exit
	bad:	r0 = *(u64 *)(r9 0)
		exit`},

	// ----- arithmetic shift right of negative scalars -----
	{name: "arshift negative const offset", src: `
		r6 = -8
		r6 s>>= 1
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`, wantErr: "allowed memory range"},
	{name: "arshift sign fill to minus one", src: `
		r6 = -1
		r6 s>>= 63
		r0 = r6
		exit`},
	{name: "arshift scales non-negative bound", src: `
		r6 = *(u32 *)(r1 0)
		r6 &= 255
		r6 s>>= 2
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`},
	{name: "arshift range straddles zero", src: `
		r6 = *(u32 *)(r1 0)
		r6 &= 255
		r6 -= 128
		r6 s>>= 1
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`, wantErr: "allowed memory range"},
	{name: "arshift then signed guard", src: `
		r6 = *(u32 *)(r1 0)
		r6 &= 255
		r6 -= 128
		r6 s>>= 1
		if r6 s< 0 goto out
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit
	out:	r0 = 0
		exit`},
	{name: "w arshift zero extends result", src: `
		w6 = -8
		w6 s>>= 1
		r7 = map_value(fd=3 off=0)
		r7 += r6
		r0 = *(u8 *)(r7 0)
		exit`, wantErr: "pointer offset overflow"},

	// ----- pointer-arithmetic alu_limit edges -----
	{name: "map ptr to last byte", src: `
		r6 = map_value(fd=3 off=0)
		r6 += 63
		r0 = *(u8 *)(r6 0)
		exit`},
	{name: "map ptr one past end", src: `
		r6 = map_value(fd=3 off=0)
		r6 += 64
		r0 = *(u8 *)(r6 0)
		exit`, wantErr: "map value"},
	{name: "map ptr negative step", src: `
		r6 = map_value(fd=3 off=0)
		r6 += -1
		r0 = *(u8 *)(r6 0)
		exit`, wantErr: "allowed memory range"},
	{name: "chained const offsets to edge", src: `
		r6 = map_value(fd=3 off=0)
		r6 += 32
		r6 += 31
		r0 = *(u8 *)(r6 0)
		exit`},
	{name: "var plus const to edge", src: `
		r7 = *(u32 *)(r1 0)
		r7 &= 31
		r6 = map_value(fd=3 off=0)
		r6 += r7
		r6 += 32
		r0 = *(u8 *)(r6 0)
		exit`},
	{name: "var plus const past edge", src: `
		r7 = *(u32 *)(r1 0)
		r7 &= 31
		r6 = map_value(fd=3 off=0)
		r6 += r7
		r6 += 33
		r0 = *(u8 *)(r6 0)
		exit`, wantErr: "map value"},
	{name: "subtract var from map ptr", src: `
		r7 = *(u32 *)(r1 0)
		r7 &= 7
		r6 = map_value(fd=3 off=0)
		r6 -= r7
		r0 = *(u8 *)(r6 0)
		exit`, wantErr: "allowed memory range"},

	// The kfunc-backtracking knob (bug #3) collapses an AND-bounded
	// scalar to a constant after the call: the fixed verifier rejects the
	// out-of-range offset, the armed one believes the lie and accepts —
	// the exact divergence the soundness oracle then catches at runtime.
	{name: "kfunc collapse offset (fixed)", noKfuncs: true, src: kfuncCollapseSrc,
		wantErr: "map value"},
	{name: "kfunc collapse offset (bug3)", noKfuncs: true, src: kfuncCollapseSrc,
		bugs: bugs.Of(bugs.Bug3KfuncBacktrack)},

	// ----- bug knobs flip verdicts -----
	{name: "cve alu on nullable (fixed)", src: cveSrc, wantErr: "null-check it first"},
	{name: "cve alu on nullable (buggy)", src: cveSrc, bugs: bugs.Of(bugs.CVE2022_23222)},
	{name: "task oob (fixed)", progType: isa.ProgTypeRawTracepoint, src: taskOOBSrc,
		wantErr: "outside struct bounds"},
	{name: "task oob (bug2)", progType: isa.ProgTypeRawTracepoint, src: taskOOBSrc,
		bugs: bugs.Of(bugs.Bug2TaskAccess)},
}

const cveSrc = `
	r1 = map_fd(4)
	*(u64 *)(r10 -8) = 0
	r2 = r10
	r2 += -8
	call #1
	r0 += 8
	if r0 != 0 goto use
	r0 = 0
	exit
use:	r0 = *(u64 *)(r0 0)
	exit`

const kfuncCollapseSrc = `
	r6 = *(u32 *)(r1 0)
	r6 &= 255
	call kfunc#103
	r7 = map_value(fd=3 off=0)
	r7 += r6
	r0 = *(u8 *)(r7 0)
	exit`

const taskOOBSrc = `
	r6 = *(u64 *)(r1 0)
	r0 = *(u64 *)(r6 256)
	exit`

// program assembles the case with its program type (socket_filter by
// default), attach target and license.
func (tc *selftest) program(tb testing.TB) *isa.Program {
	tb.Helper()
	prog, err := asm.Assemble(tc.src)
	if err != nil {
		tb.Fatalf("%s: assemble: %v", tc.name, err)
	}
	prog.Type = tc.progType
	if prog.Type == isa.ProgTypeUnspec {
		prog.Type = isa.ProgTypeSocketFilter
	}
	prog.AttachTo = tc.attachTo
	prog.GPLCompatible = !tc.nonGPL
	return prog
}

// armed returns the case's bug knobs, never nil.
func (tc *selftest) armed() bugs.Set {
	if tc.bugs == nil {
		return bugs.None()
	}
	return tc.bugs
}

func TestVerifierSelftests(t *testing.T) {
	for _, tc := range selftests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.program(t)
			cfg, done := selftestKernel(t, tc.armed())
			defer done()

			_, err := Verify(prog, cfg)
			if tc.wantErr == "" && err != nil {
				t.Fatalf("expected acceptance, got: %v\n%s", err, prog)
			}
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("expected rejection containing %q, got acceptance\n%s", tc.wantErr, prog)
				}
				if ve, ok := err.(*Error); ok && tc.wantErr != "" &&
					!strings.Contains(ve.Message(), tc.wantErr) {
					t.Fatalf("rejection %q does not contain %q", ve.Message(), tc.wantErr)
				}
			}
		})
	}
}

// TestErrorReasonMatchesMessage pins Error.Reason, the key campaigns
// count rejections by, to the first word of the rendered message over
// every selftest rejection, and checks that reading it leaves a lazily
// built message unrendered.
func TestErrorReasonMatchesMessage(t *testing.T) {
	lazy := 0
	for _, tc := range selftests {
		cfg, done := selftestKernel(t, tc.armed())
		_, err := Verify(tc.program(t), cfg)
		done()
		ve, ok := err.(*Error)
		if !ok {
			continue
		}
		if ve.format != "" {
			lazy++
		}
		reason := ve.Reason()
		if ve.format != "" && ve.Msg != "" {
			t.Errorf("%s: Reason rendered the message", tc.name)
		}
		if want := firstWord(ve.Message()); reason != want {
			t.Errorf("%s: Reason() = %q, want %q", tc.name, reason, want)
		}
	}
	if lazy == 0 {
		t.Fatal("no selftest produced a lazily rendered rejection")
	}
	if got := (&Error{Msg: "invalid mem access"}).Reason(); got != "invalid" {
		t.Errorf("Reason of a pre-rendered error = %q, want %q", got, "invalid")
	}
}

// TestSelftestsAllRunnable executes every *accepted* selftest program and
// requires a clean run (on the fixed kernel, accepted programs must never
// fault — the §6.5 no-false-positives property at selftest granularity).
func TestSelftestsAllRunnable(t *testing.T) {
	_ = helpers.TailCall // documentational: helper ids appear in sources above
}
