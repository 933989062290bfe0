; A fuzzed tracepoint program whose verification saturates the prune
; points (BenchmarkVerifyPruneSaturated, TestPruneSaturatedWork). It is
; accepted only with Bug #1 armed: the null checks at insns 39 and 47
; compare R0 against R9, not 0. The loop from insn 34 to its back-edge
; at insn 50 runs seven times, and every pass forks at both null checks.
; The first paths fill the 16-state list (maxStatesPerInsn) of each of
; those three prune points, and later paths, which differ in R8, match
; none of the kept states: 4 875 prune checks, 4 803 of them against a
; full list, 56 346 deep compares, 33 prunes. So the verifier simulates
; 27 838 instructions over 4 169 states. map_fd(6) is a hash map with
; 4-byte keys and 8-byte values; btf_id(1) is a kernel variable.
	r6 = 366
	r7 = 358
	r9 = btf_id(1)
	if w7 >= w6 goto +1
	call #7
	*(u64 *)(r10 -8) = r6
	r8 = *(u16 *)(r10 -8)
	r0 &= r8
	r8 = *(u64 *)(r9 +16)
	r7 -= r6
	*(u64 *)(r10 -16) = r0
	r7 = *(u8 *)(r10 -16)
	if r0 s> 2620 goto +20
	r7 &= 15
	r6 *= 911
	r6 = *(u64 *)(r9 +64)
	r8 ^= r8
	r0 s>>= 24
	if r7 >= r7 goto +14
	*(u64 *)(r10 -24) = 182
	*(u64 *)(r10 -32) = 133
	r1 = r10
	r1 += -32
	r2 = 16
	call #6
	r1 = 1000
	call kfunc#102
	if r0 != 0 goto +2
	r0 = 0
	exit
	r8 = r0
	r1 = r8
	call kfunc#101
	r8 = 0
	*(u64 *)(r10 -40) = 182
	r1 = map_fd(6)
	r2 = r10
	r2 += -40
	call #1
	if r0 != r9 goto +1
	r6 = *(u64 *)(r0 +0)
	r7 = le32 r7
	*(u64 *)(r10 -48) = 32
	r1 = map_fd(6)
	r2 = r10
	r2 += -48
	call #1
	if r0 != r9 goto +1
	r6 = *(u64 *)(r0 +0)
	r8 += 1
	if r8 < 7 goto -19
	r7 = be32 r7
	r0 = 0
	exit
