package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	insns := []Instruction{
		Mov64Imm(R0, 42),
		Mov64Reg(R1, R10),
		Alu64Imm(ALUAdd, R1, -8),
		Alu32Reg(ALUXor, R2, R3),
		LoadMem(SizeDW, R0, R10, -8),
		LoadMemSX(SizeB, R3, R1, 4),
		StoreMem(SizeW, R10, R1, -16),
		StoreImm(SizeDW, R10, -8, 0),
		Atomic(SizeDW, R1, R2, 0, AtomicAdd),
		Atomic(SizeW, R1, R2, 4, AtomicCmpXchg),
		JumpA(3),
		JumpImm(JEQ, R0, 0, 1),
		JumpReg(JSGT, R4, R5, -2),
		Jump32Imm(JLT, R6, 100, 5),
		Call(1),
		CallPseudo(7),
		CallKfunc(1234),
		Endian(R1, 32, true),
		Neg64(R7),
		Exit(),
	}
	for _, want := range insns {
		buf := want.Encode(nil)
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", want, err)
		}
		if n != len(buf) {
			t.Fatalf("Decode(%v) consumed %d of %d bytes", want, n, len(buf))
		}
		got.Meta = want.Meta
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestWideEncodeDecode(t *testing.T) {
	for _, want := range []Instruction{
		LoadImm64(R5, 0xdeadbeefcafebabe),
		LoadMapFD(R1, 3),
		LoadMapValue(R2, 4, 16),
		LoadBTFID(R6, 99),
	} {
		buf := want.Encode(nil)
		if len(buf) != 16 {
			t.Fatalf("wide insn encoded to %d bytes", len(buf))
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if n != 16 {
			t.Fatalf("Decode consumed %d bytes, want 16", n)
		}
		if got.Imm64 != want.Imm64 || got.Src != want.Src || got.Dst != want.Dst {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); err != ErrTruncated {
		t.Errorf("short buffer: err = %v, want ErrTruncated", err)
	}
	wide := LoadImm64(R1, 1).Encode(nil)
	if _, _, err := Decode(wide[:8]); err != ErrTruncated {
		t.Errorf("half of ld_imm64: err = %v, want ErrTruncated", err)
	}
}

func TestProgramEncodeDecodeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	mk := func() Instruction {
		switch r.Intn(5) {
		case 0:
			return Mov64Imm(uint8(r.Intn(10)), int32(r.Uint32()))
		case 1:
			return LoadImm64(uint8(r.Intn(10)), r.Uint64())
		case 2:
			return LoadMem(SizeDW, uint8(r.Intn(10)), R10, int16(-8*(1+r.Intn(10))))
		case 3:
			return JumpImm(JNE, uint8(r.Intn(10)), int32(r.Uint32()), int16(r.Intn(100)))
		default:
			return Alu64Reg(ALUAdd, uint8(r.Intn(10)), uint8(r.Intn(10)))
		}
	}
	for trial := 0; trial < 200; trial++ {
		p := &Program{}
		n := 1 + r.Intn(50)
		for i := 0; i < n; i++ {
			p.Insns = append(p.Insns, mk())
		}
		p.Insns = append(p.Insns, Exit())
		buf := p.Encode()
		q, err := DecodeProgram(buf)
		if err != nil {
			t.Fatalf("DecodeProgram: %v", err)
		}
		if len(q.Insns) != len(p.Insns) {
			t.Fatalf("decoded %d insns, want %d", len(q.Insns), len(p.Insns))
		}
		for i := range p.Insns {
			if q.Insns[i] != p.Insns[i] {
				t.Fatalf("insn %d mismatch: got %+v want %+v", i, q.Insns[i], p.Insns[i])
			}
		}
	}
}

func TestSlotsAndSlotOf(t *testing.T) {
	p := &Program{Insns: []Instruction{
		Mov64Imm(R0, 0),  // slot 0
		LoadImm64(R1, 1), // slots 1-2
		Mov64Reg(R2, R1), // slot 3
		LoadMapFD(R3, 5), // slots 4-5
		Exit(),           // slot 6
	}}
	if got := p.Slots(); got != 7 {
		t.Errorf("Slots() = %d, want 7", got)
	}
	wantSlots := []int{0, 1, 3, 4, 6}
	for i, want := range wantSlots {
		if got := p.SlotOf(i); got != want {
			t.Errorf("SlotOf(%d) = %d, want %d", i, got, want)
		}
	}
	for i, want := range wantSlots {
		if got := p.IndexOfSlot(want); got != i {
			t.Errorf("IndexOfSlot(%d) = %d, want %d", want, got, i)
		}
	}
	if got := p.IndexOfSlot(2); got != -1 {
		t.Errorf("IndexOfSlot(middle of wide) = %d, want -1", got)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	p := &Program{Insns: []Instruction{
		Mov64Reg(R6, R1),
		Mov64Imm(R0, 0),
		StoreMem(SizeDW, R10, R0, -8),
		JumpImm(JEQ, R0, 0, 1),
		Mov64Imm(R0, 1),
		Exit(),
	}}
	if err := p.Validate(MaxInsns); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"empty", &Program{}},
		{"no exit", &Program{Insns: []Instruction{Mov64Imm(R0, 0)}}},
		{"jump out of range", &Program{Insns: []Instruction{JumpA(5), Exit()}}},
		{"backward jump out of range", &Program{Insns: []Instruction{JumpA(-3), Exit()}}},
		{"jump into wide insn", &Program{Insns: []Instruction{
			JumpImm(JEQ, R0, 0, 1), LoadImm64(R1, 1), Exit(),
		}}},
		{"bad dst reg", &Program{Insns: []Instruction{
			{Opcode: ClassALU64 | SrcK | ALUMov, Dst: 12}, Exit(),
		}}},
		{"alu imm with src reg", &Program{Insns: []Instruction{
			{Opcode: ClassALU64 | SrcK | ALUAdd, Dst: R0, Src: R1}, Exit(),
		}}},
		{"exit with operands", &Program{Insns: []Instruction{
			{Opcode: ClassJMP | EXIT, Imm: 3},
		}}},
		{"unknown atomic", &Program{Insns: []Instruction{
			Atomic(SizeDW, R1, R2, 0, 0x77), Exit(),
		}}},
		{"atomic byte size", &Program{Insns: []Instruction{
			Atomic(SizeB, R1, R2, 0, AtomicAdd), Exit(),
		}}},
		{"ld_imm64 bad pseudo", &Program{Insns: []Instruction{
			{Opcode: ClassLD | ModeIMM | SizeDW, Dst: R1, Src: 9}, Exit(),
		}}},
		{"st with src", &Program{Insns: []Instruction{
			{Opcode: ClassST | ModeMEM | SizeW, Dst: R10, Src: R1, Off: -8}, Exit(),
		}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(MaxInsns); err == nil {
			t.Errorf("%s: Validate accepted invalid program", c.name)
		}
	}
}

func TestValidateInsnLimit(t *testing.T) {
	p := &Program{}
	for i := 0; i < 10; i++ {
		p.Insns = append(p.Insns, Mov64Imm(R0, 0))
	}
	p.Insns = append(p.Insns, Exit())
	if err := p.Validate(5); err == nil {
		t.Error("Validate accepted program over the insn limit")
	}
	if err := p.Validate(11); err != nil {
		t.Errorf("Validate rejected program at the limit: %v", err)
	}
}

func TestPredicates(t *testing.T) {
	if !Exit().IsExit() || Exit().IsCall() {
		t.Error("Exit predicates wrong")
	}
	if !Call(1).IsHelperCall() || Call(1).IsPseudoCall() {
		t.Error("helper call predicates wrong")
	}
	if !CallPseudo(1).IsPseudoCall() || CallPseudo(1).IsHelperCall() {
		t.Error("pseudo call predicates wrong")
	}
	if !CallKfunc(1).IsKfuncCall() {
		t.Error("kfunc call predicate wrong")
	}
	if !JumpA(1).IsUncondJump() || JumpA(1).IsCondJump() {
		t.Error("ja predicates wrong")
	}
	if !JumpImm(JEQ, R0, 0, 1).IsCondJump() {
		t.Error("jeq not a cond jump")
	}
	if !LoadMem(SizeW, R0, R1, 0).IsMemLoad() {
		t.Error("ldx not a mem load")
	}
	if !StoreMem(SizeW, R1, R0, 0).IsMemStore() || !StoreImm(SizeB, R1, 0, 7).IsMemStore() {
		t.Error("store predicates wrong")
	}
	if !Atomic(SizeDW, R1, R2, 0, AtomicAdd).IsAtomic() {
		t.Error("atomic predicate wrong")
	}
	if got := LoadMem(SizeH, R0, R1, 0).AccessSize(); got != 2 {
		t.Errorf("AccessSize = %d, want 2", got)
	}
	if got := Mov64Imm(R0, 1).AccessSize(); got != 0 {
		t.Errorf("AccessSize of mov = %d, want 0", got)
	}
}

func TestDisasmFormats(t *testing.T) {
	cases := []struct {
		ins  Instruction
		want string
	}{
		{Mov64Imm(R0, 42), "r0 = 42"},
		{Mov64Reg(R1, R10), "r1 = r10"},
		{Mov32Imm(R2, 7), "w2 = 7"},
		{Alu64Imm(ALUAdd, R2, -8), "r2 += -8"},
		{Alu32Reg(ALUXor, R3, R4), "w3 ^= w4"},
		{LoadMem(SizeDW, R0, R10, -8), "r0 = *(u64 *)(r10 -8)"},
		{StoreImm(SizeDW, R10, -8, 0), "*(u64 *)(r10 -8) = 0"},
		{StoreMem(SizeW, R1, R2, 4), "*(u32 *)(r1 +4) = r2"},
		{JumpImm(JEQ, R0, 0, 2), "if r0 == 0 goto +2"},
		{JumpReg(JNE, R1, R2, -1), "if r1 != r2 goto -1"},
		{Jump32Imm(JSLT, R3, 5, 1), "if w3 s< 5 goto +1"},
		{JumpA(4), "goto +4"},
		{Call(1), "call #1"},
		{CallKfunc(77), "call kfunc#77"},
		{Exit(), "exit"},
		{LoadMapFD(R1, 3), "r1 = map_fd(3)"},
		{Atomic(SizeDW, R1, R2, 0, AtomicAdd), "lock *(u64 *)(r1 +0) += r2"},
	}
	for _, c := range cases {
		if got := c.ins.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSizeHelpers(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		if got := SizeBytes(SizeFromBytes(n)); got != n {
			t.Errorf("SizeBytes(SizeFromBytes(%d)) = %d", n, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SizeFromBytes(3) did not panic")
		}
	}()
	SizeFromBytes(3)
}

func TestCloneIsDeep(t *testing.T) {
	p := &Program{Insns: []Instruction{Mov64Imm(R0, 1), Exit()}, Name: "x"}
	q := p.Clone()
	q.Insns[0].Imm = 99
	if p.Insns[0].Imm != 1 {
		t.Error("Clone shares instruction storage")
	}
}

// Property: any program built from valid constructors survives an
// encode/decode/encode cycle byte-identically.
func TestEncodeStableProperty(t *testing.T) {
	f := func(dst, src uint8, off int16, imm int32) bool {
		ins := Instruction{Opcode: ClassALU64 | SrcK | ALUAdd, Dst: dst % 10, Imm: imm}
		buf1 := ins.Encode(nil)
		dec, _, err := Decode(buf1)
		if err != nil {
			return false
		}
		buf2 := dec.Encode(nil)
		return string(buf1) == string(buf2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := &Program{Insns: []Instruction{
		Mov64Reg(R6, R1), LoadMapFD(R1, 3), Mov64Reg(R2, R10),
		Alu64Imm(ALUAdd, R2, -8), StoreImm(SizeDW, R10, -8, 0),
		Call(1), JumpImm(JEQ, R0, 0, 1), LoadMem(SizeDW, R0, R0, 0), Exit(),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Encode()
	}
}

func TestInsertAtPatchesJumps(t *testing.T) {
	p := &Program{Insns: []Instruction{
		Mov64Imm(R0, 0),
		JumpImm(JEQ, R0, 0, 2), // over the two insns below
		Mov64Imm(R0, 1),
		Mov64Imm(R0, 2),
		Exit(),
	}}
	block := []Instruction{Mov64Imm(R6, 9), Mov64Imm(R7, 9)}

	// Insert inside the jump span: offset stretches.
	q, err := InsertAt(p, 2, block...)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Insns[1].Off; got != 4 {
		t.Errorf("stretched offset = %d, want 4", got)
	}
	if err := q.Validate(MaxInsns); err != nil {
		t.Fatalf("patched program invalid: %v", err)
	}

	// Insert at the jump target: the jump must land on the block start.
	q2, err := InsertAt(p, 4, block...)
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Insns[1].Off; got != 2 {
		t.Errorf("target-block offset = %d, want 2 (land on inserted code)", got)
	}

	// Insert before the whole program.
	q3, err := InsertAt(p, 0, block...)
	if err != nil {
		t.Fatal(err)
	}
	if got := q3.Insns[2+1].Off; got != 2 {
		t.Errorf("prefix insert disturbed offsets: %d", got)
	}
	if len(q3.Insns) != len(p.Insns)+2 {
		t.Errorf("len = %d", len(q3.Insns))
	}
}

func TestInsertAtBackwardJump(t *testing.T) {
	p := &Program{Insns: []Instruction{
		Mov64Imm(R6, 0),
		Alu64Imm(ALUAdd, R6, 1), // loop body
		JumpImm(JLT, R6, 5, -2), // back to the add
		Mov64Imm(R0, 0),
		Exit(),
	}}
	q, err := InsertAt(p, 2, Mov64Imm(R7, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Back edge must now skip the inserted insn too... the insert sits
	// before the jump, inside the span, so the magnitude grows by 1.
	if got := q.Insns[3].Off; got != -3 {
		t.Errorf("backward offset = %d, want -3", got)
	}
	if err := q.Validate(MaxInsns); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestInsertAtWithWideInsns(t *testing.T) {
	p := &Program{Insns: []Instruction{
		JumpImm(JEQ, R0, 0, 3), // over the wide insn + mov
		LoadImm64(R1, 0xffeeddccbbaa0099),
		Mov64Imm(R0, 1),
		Exit(),
	}}
	// The original must be structurally valid to begin with.
	base := &Program{Insns: append([]Instruction{Mov64Imm(R0, 0)}, p.Insns...)}
	if err := base.Validate(MaxInsns); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	q, err := InsertAt(base, 2, Mov64Imm(R8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(MaxInsns); err != nil {
		t.Fatalf("patched invalid: %v", err)
	}
	if got := q.Insns[1].Off; got != 4 {
		t.Errorf("offset across wide insn = %d, want 4", got)
	}
}

func TestInsertAtErrors(t *testing.T) {
	p := &Program{Insns: []Instruction{Mov64Imm(R0, 0), Exit()}}
	if _, err := InsertAt(p, -1, Exit()); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := InsertAt(p, 5, Exit()); err == nil {
		t.Error("out-of-range index accepted")
	}
	// Append at the very end is legal.
	q, err := InsertAt(p, 2, Exit())
	if err != nil || len(q.Insns) != 3 {
		t.Errorf("append failed: %v", err)
	}
}

func TestRemoveAt(t *testing.T) {
	p := &Program{Insns: []Instruction{
		Mov64Imm(R0, 0),
		JumpImm(JEQ, R0, 0, 2),
		Mov64Imm(R6, 1), // removable
		Mov64Imm(R7, 2),
		Exit(),
	}}
	q, err := RemoveAt(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Insns) != 4 {
		t.Fatalf("len = %d", len(q.Insns))
	}
	if got := q.Insns[1].Off; got != 1 {
		t.Errorf("shrunk offset = %d, want 1", got)
	}
	if err := q.Validate(MaxInsns); err != nil {
		t.Fatalf("invalid after removal: %v", err)
	}

	// Removing the jump target redirects to the successor.
	q2, err := RemoveAt(p, 3) // was the target of the jump (off 2 -> insn 4?) actually target is insn 4
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Validate(MaxInsns); err != nil {
		t.Fatalf("invalid: %v", err)
	}

	// Removing the final exit yields an invalid program the caller
	// must catch.
	q3, err := RemoveAt(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := q3.Validate(MaxInsns); err == nil {
		t.Error("program without exit validated")
	}

	if _, err := RemoveAt(p, 9); err == nil {
		t.Error("out-of-range removal accepted")
	}
}

func TestRemoveAtTargetRedirect(t *testing.T) {
	p := &Program{Insns: []Instruction{
		JumpImm(JEQ, R0, 0, 1), // target: insn 2
		Mov64Imm(R0, 1),
		Mov64Imm(R0, 2), // the target — removed
		Exit(),
	}}
	// Fix fixture validity: R0 read before init — fine for Validate (no
	// dataflow there).
	q, err := RemoveAt(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Jump now lands on the exit (old successor of the target).
	if got := q.Insns[0].Off; got != 1 {
		t.Errorf("redirected offset = %d, want 1", got)
	}
	if err := q.Validate(MaxInsns); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestRemoveAtWithWide(t *testing.T) {
	p := &Program{Insns: []Instruction{
		Mov64Imm(R0, 0),
		JumpImm(JEQ, R0, 0, 3), // over wide + mov, to exit
		LoadImm64(R1, 0x1111222233334444),
		Mov64Imm(R2, 1),
		Exit(),
	}}
	q, err := RemoveAt(p, 2) // remove the wide insn (2 slots)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Insns[1].Off; got != 1 {
		t.Errorf("offset after wide removal = %d, want 1", got)
	}
	if err := q.Validate(MaxInsns); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

// TestParseProgramType: every concrete type's name parses back to it,
// and an unknown name, including the unspec type that no program can
// be loaded as, is an error that lists the valid names.
func TestParseProgramType(t *testing.T) {
	for _, c := range []struct {
		in   string
		want ProgramType
		ok   bool
	}{
		{"socket_filter", ProgTypeSocketFilter, true},
		{"kprobe", ProgTypeKprobe, true},
		{"xdp", ProgTypeXDP, true},
		{"sched_cls", ProgTypeSchedCLS, true},
		{"unspec", 0, false},
		{"XDP", 0, false},
		{"socket-filter", 0, false},
		{"", 0, false},
	} {
		got, err := ParseProgramType(c.in)
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "socket_filter, kprobe") {
				t.Errorf("ParseProgramType(%q) = %v, %v; want an error listing the valid names", c.in, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseProgramType(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, pt := range AllProgramTypes {
		if got, err := ParseProgramType(pt.String()); err != nil || got != pt {
			t.Errorf("ParseProgramType(%v.String()) = %v, %v", pt, got, err)
		}
	}
}
