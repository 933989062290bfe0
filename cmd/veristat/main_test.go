package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
)

// TestExampleProgramsVerify guards the shipped sample programs: every
// examples/progs/*.s must assemble; all except the deliberate reject_oob
// must pass the verifier on the standard fixture.
func TestExampleProgramsVerify(t *testing.T) {
	paths, err := filepath.Glob("../../examples/progs/*.s")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no sample programs found: %v", err)
	}
	k := kernel.New(kernel.Config{Version: kernel.BPFNext, Sanitize: true})
	fixture := []maps.Spec{
		{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 4, Name: "arr"},
		{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 8, Name: "hash"},
		{Type: maps.Queue, ValueSize: 16, MaxEntries: 4, Name: "q"},
		{Type: maps.ProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 2, Name: "jt"},
		{Type: maps.RingBuf, MaxEntries: 64, Name: "rb"},
	}
	for _, spec := range fixture {
		if _, err := k.CreateMap(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := buildProgram(string(src))
		if err != nil {
			t.Fatalf("%s: assemble: %v", path, err)
		}
		lp, err := k.LoadProgram(prog)
		wantReject := strings.Contains(path, "reject")
		if wantReject {
			if err == nil {
				t.Errorf("%s: expected rejection", path)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: rejected: %v", path, err)
			continue
		}
		// Accepted samples must also run clean.
		if out := k.Run(lp); out.Err != nil {
			t.Errorf("%s: run faulted: %v", path, out.Err)
		}
	}
}

func TestBuildProgramDirectives(t *testing.T) {
	prog, err := buildProgram("; prog_type: kprobe\n; attach: contention_begin\n; nongpl\nr0 = 0\nexit\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Type != isa.ProgTypeKprobe {
		t.Errorf("type = %v", prog.Type)
	}
	if prog.AttachTo != "contention_begin" {
		t.Errorf("attach = %q", prog.AttachTo)
	}
	if prog.GPLCompatible {
		t.Error("nongpl ignored")
	}
	// An unknown prog_type fails the file instead of loading it as a
	// socket filter.
	if prog, err := buildProgram("; prog_type: kprobes\nr0 = 0\nexit\n"); err == nil ||
		!strings.Contains(err.Error(), `unknown program type "kprobes"`) {
		t.Errorf("unknown prog_type: got %v, %v; want an error", prog, err)
	}
}
