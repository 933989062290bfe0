package verifier

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/btf"
	"repro/internal/coverage"
	"repro/internal/helpers"
	"repro/internal/maps"
)

// TestSiteOfPartsMatchesSiteOf: every dynamic site, named from the parts
// the verifier passes to e.cov, is the Site that SiteOf gives the whole
// name built as one string. The names cover the standard registries,
// every ctx field of every program type, every map type, access size and
// direction, and every register type; the sites of the per-instruction
// arrays are checked against their names the same way.
func TestSiteOfPartsMatchesSiteOf(t *testing.T) {
	type name struct {
		whole string
		parts []string
	}
	var names []name
	add := func(whole string, parts ...string) { names = append(names, name{whole, parts}) }

	reg := helpers.NewRegistry()
	for _, id := range reg.IDs() {
		h := reg.ByID(id)
		add("call:"+h.Name, "call:", h.Name)
		add("call:badarg:"+h.Name, "call:badarg:", h.Name)
	}
	kreg := btf.NewKernelRegistry()
	for _, id := range kreg.Kfuncs() {
		k := kreg.Kfunc(id)
		add("kfunc:"+k.Name, "kfunc:", k.Name)
	}
	for _, id := range kreg.StructIDs() {
		s := kreg.Struct(id)
		add("mem:btf:"+s.Name, "mem:btf:", s.Name)
	}
	for pt, layout := range ctxLayouts {
		for _, f := range layout.Fields {
			add("mem:ctx_field:"+pt.String()+":"+f.Name, "mem:ctx_field:", pt.String(), ":", f.Name)
		}
	}
	for _, mt := range maps.AllTypes {
		add("call:map_arg:"+mt.String(), "call:map_arg:", mt.String())
		for _, size := range []int{1, 2, 4, 8} {
			for _, store := range []bool{false, true} {
				add(fmt.Sprintf("mem:map_value:%s:%d:%v", mt, size, store),
					"mem:map_value:", mt.String(), ":", strconv.Itoa(size), ":", strconv.FormatBool(store))
			}
		}
	}
	for _, rt := range []RegType{
		NotInit, Scalar, PtrToCtx, ConstPtrToMap, PtrToMapValue,
		PtrToStack, PtrToPacket, PtrToPacketEnd, PtrToBTFID, PtrToMem,
	} {
		add("alu:ptr_var:"+rt.String(), "alu:ptr_var:", rt.String())
		add("mem:bad_base:"+rt.String(), "mem:bad_base:", rt.String())
	}
	add("reject:invalid", "reject:", "invalid")

	seen := make(map[coverage.Site]string, len(names))
	for _, n := range names {
		e := &env{lcov: coverage.NewLocal()}
		e.cov(n.parts...)
		want := coverage.SiteOf(n.whole)
		if got := e.lcov.Export(); len(got) != 1 || got[0] != want {
			t.Errorf("%q: cov(%q) recorded %#x, want SiteOf = %#x", n.whole, n.parts, got, want)
		}
		if prev, ok := seen[want]; ok && prev != n.whole {
			t.Errorf("%q and %q name one site", prev, n.whole)
		}
		seen[want] = n.whole
	}
	if len(seen) < 200 {
		t.Errorf("checked %d distinct names; the registries shrank", len(seen))
	}

	for op, name := range jmpOpNames {
		for o := branchOutcome(0); o < maxJmpOutcome; o++ {
			if got, want := jmpOutcomeSites[op][o], coverage.SiteOf("jmp:"+name+":"+outcomeName(o)); got != want {
				t.Errorf("jmpOutcomeSites[%s][%s] = %#x, want %#x", name, outcomeName(o), got, want)
			}
		}
	}
	for op, name := range aluOpNames {
		if got, want := aluScalarSites[op], coverage.SiteOf("alu:scalar:"+name); got != want {
			t.Errorf("aluScalarSites[%s] = %#x, want %#x", name, got, want)
		}
	}
	for size := range stackAccessSites {
		for i, store := range []bool{false, true} {
			if got, want := stackAccessSites[size][i], coverage.SiteOf(fmt.Sprintf("mem:stack:%d:%v", size, store)); got != want {
				t.Errorf("stackAccessSites[%d][%v] = %#x, want %#x", size, store, got, want)
			}
		}
	}
}
