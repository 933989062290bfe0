package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernel"
)

// mutateRef is Mutate as it was before the in-place operators shared one
// lazily made copy, kept as the reference the differential test compares
// the current Mutate against: it clones the parent up front, clones it
// again to undo an invalid in-place edit, and each operator collects its
// candidates into a slice before drawing one.
func mutateRef(r *rand.Rand, p *isa.Program) *isa.Program {
	q := p.Clone()
	for attempt := 0; attempt < 4; attempt++ {
		var m *isa.Program
		var ok bool
		switch r.Intn(4) {
		case 0:
			m, ok = q, mutateImmRef(r, q)
		case 1:
			m, ok = mutateDupRef(r, p)
		case 2:
			m, ok = q, mutateStoreValueRef(r, q)
		case 3:
			m, ok = q, mutateAttachRef(r, q)
		}
		if !ok {
			continue
		}
		if m.Validate(isa.MaxInsns) == nil {
			return m
		}
		if m == q {
			q = p.Clone()
		}
	}
	return q
}

func mutateImmRef(r *rand.Rand, p *isa.Program) bool {
	var cand []int
	for i, ins := range p.Insns {
		cls := ins.Class()
		if (cls == isa.ClassALU || cls == isa.ClassALU64) &&
			isa.Src(ins.Opcode) == isa.SrcK && isa.Op(ins.Opcode) != isa.ALUEnd {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return false
	}
	i := cand[r.Intn(len(cand))]
	ins := &p.Insns[i]
	switch isa.Op(ins.Opcode) {
	case isa.ALUDiv, isa.ALUMod:
		ins.Imm = int32(1 + r.Intn(1<<16))
	case isa.ALULsh, isa.ALURsh, isa.ALUArsh:
		width := int32(63)
		if ins.Class() == isa.ClassALU {
			width = 31
		}
		ins.Imm = int32(r.Intn(int(width) + 1))
	default:
		switch r.Intn(4) {
		case 0:
			ins.Imm++
		case 1:
			ins.Imm = -ins.Imm
		case 2:
			ins.Imm = int32(r.Uint32())
		default:
			ins.Imm ^= 1 << uint(r.Intn(32))
		}
	}
	return true
}

func mutateDupRef(r *rand.Rand, p *isa.Program) (*isa.Program, bool) {
	var cand []int
	for i, ins := range p.Insns {
		cls := ins.Class()
		if cls == isa.ClassALU || cls == isa.ClassALU64 ||
			((cls == isa.ClassST || cls == isa.ClassSTX) && !ins.IsAtomic()) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return p, false
	}
	i := cand[r.Intn(len(cand))]
	q, err := isa.InsertAt(p, i, p.Insns[i])
	if err != nil {
		return p, false
	}
	return q, true
}

func mutateStoreValueRef(r *rand.Rand, p *isa.Program) bool {
	var cand []int
	for i, ins := range p.Insns {
		if ins.Class() == isa.ClassST && isa.Mode(ins.Opcode) == isa.ModeMEM {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return false
	}
	p.Insns[cand[r.Intn(len(cand))]].Imm = int32(r.Uint32())
	return true
}

func mutateAttachRef(r *rand.Rand, p *isa.Program) bool {
	if p.Type != isa.ProgTypeKprobe && p.Type != isa.ProgTypeTracepoint {
		return false
	}
	targets := []string{"sched_switch", "sys_enter", "kprobe:generic"}
	p.AttachTo = targets[r.Intn(len(targets))]
	return true
}

// handMadeParents are programs on which an operator has no candidate or
// an in-place edit goes invalid.
func handMadeParents() []*isa.Program {
	neg := isa.Instruction{Opcode: isa.ClassALU64 | isa.ALUNeg | isa.SrcK, Dst: isa.R0}
	store := isa.Instruction{Opcode: isa.ClassST | isa.ModeMEM | isa.SizeDW, Dst: isa.R10, Off: -8, Imm: 7}
	return []*isa.Program{
		// No operator has a candidate.
		{Type: isa.ProgTypeSocketFilter, Insns: []isa.Instruction{isa.Exit()}},
		// Every immediate edit of the neg goes invalid; duplicating
		// it is valid.
		{Type: isa.ProgTypeSocketFilter, Insns: []isa.Instruction{neg, isa.Exit()}},
		// Every operator has a candidate, with a name to carry over.
		{Type: isa.ProgTypeKprobe, Name: "all", GPLCompatible: true, AttachTo: "kprobe:generic",
			Insns: []isa.Instruction{store, isa.Mov64Imm(isa.R0, 0), neg, isa.Exit()}},
		// The neg and the store on a tracepoint program.
		{Type: isa.ProgTypeTracepoint, AttachTo: "sched_switch",
			Insns: []isa.Instruction{neg, store, isa.Exit()}},
		// An invalid parent (no exit): every edit stays invalid, so
		// Mutate returns the parent's copy.
		{Type: isa.ProgTypeKprobe, Insns: []isa.Instruction{store, isa.Mov64Imm(isa.R0, 1)}},
	}
}

// fuzzedParents are generated programs and the corpus of a short
// campaign.
func fuzzedParents(t *testing.T) []*isa.Program {
	var parents []*isa.Program
	g := NewGenerator(GenConfig{Maps: testPool(), Kfuncs: true})
	gr := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		parents = append(parents, g.Generate(gr))
	}
	c := NewCampaign(CampaignConfig{Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 5})
	if _, err := c.Run(3000); err != nil {
		t.Fatal(err)
	}
	if c.corpus.Len() == 0 {
		t.Fatal("campaign left an empty corpus")
	}
	return append(parents, c.corpus.progs...)
}

// TestMutateMatchesReference: over many seeds and parents, Mutate returns
// the program mutateRef returns, leaves the RNG where mutateRef leaves
// it, and leaves the parent as it was. A hand-made parent gets enough
// seeds that all four attempts draw duplication on some of them.
func TestMutateMatchesReference(t *testing.T) {
	handMade := handMadeParents()
	parents := append(handMade, fuzzedParents(t)...)
	for pi, p := range parents {
		orig := p.Clone()
		seeds := int64(32)
		if pi < len(handMade) {
			seeds = 1024
		}
		for seed := int64(0); seed < seeds; seed++ {
			rGot := rand.New(rand.NewSource(seed))
			rWant := rand.New(rand.NewSource(seed))
			got := Mutate(rGot, p)
			want := mutateRef(rWant, p)
			if got == p {
				t.Fatalf("parent %d seed %d: Mutate returned the parent itself", pi, seed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parent %d seed %d: Mutate returned\n%s(attach %q), reference\n%s(attach %q)",
					pi, seed, got, got.AttachTo, want, want.AttachTo)
			}
			if g, w := rGot.Int63(), rWant.Int63(); g != w {
				t.Fatalf("parent %d seed %d: RNG position differs (next draw %d, reference %d)", pi, seed, g, w)
			}
			if !reflect.DeepEqual(p, orig) {
				t.Fatalf("parent %d seed %d: Mutate modified its parent", pi, seed)
			}
		}
	}
}
