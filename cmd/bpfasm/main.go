// Command bpfasm assembles, disassembles, and verifies eBPF programs.
//
// Usage:
//
//	bpfasm [-asm|-hex] [-emit] [-verify] [-version bpf-next] [-type socket_filter] [file]
//
// By default the input is a little-endian encoded program (8 bytes per
// slot) read from the file argument or stdin, and the output is its
// disassembly. With -hex the input is hex text; with -asm the input is
// assembly text (the disassembler's dialect) which is first assembled.
// With -emit the encoded program is printed as hex. With -verify the
// program is checked by the verifier model and the decision printed.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/kernel"
)

func main() {
	var (
		verify   = flag.Bool("verify", false, "run the program through the verifier model")
		hexIn    = flag.Bool("hex", false, "input is hex text rather than raw bytes")
		asmIn    = flag.Bool("asm", false, "input is assembly text")
		emit     = flag.Bool("emit", false, "print the encoded program as hex")
		version  = flag.String("version", "bpf-next", "kernel version for -verify")
		progType = flag.String("type", "socket_filter", "program type: socket_filter, kprobe, xdp, ...")
	)
	flag.Parse()
	v, err := kernel.ParseVersion(*version)
	if err != nil {
		usage(err)
	}
	typ, err := isa.ParseProgramType(*progType)
	if err != nil {
		usage(err)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	raw, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}
	var prog *isa.Program
	if *asmIn {
		prog, err = asm.Assemble(string(raw))
		if err != nil {
			fatal(err)
		}
	} else {
		if *hexIn {
			clean := strings.Map(func(r rune) rune {
				if strings.ContainsRune("0123456789abcdefABCDEF", r) {
					return r
				}
				return -1
			}, string(raw))
			raw, err = hex.DecodeString(clean)
			if err != nil {
				fatal(fmt.Errorf("bad hex input: %w", err))
			}
		}
		prog, err = isa.DecodeProgram(raw)
		if err != nil {
			fatal(err)
		}
	}
	prog.Type = typ
	fmt.Print(prog.String())
	if *emit {
		fmt.Printf("%s%s%s", "\n", hex.EncodeToString(prog.Encode()), "\n")
	}

	if !*verify {
		return
	}
	k := kernel.New(kernel.Config{Version: v})
	prog.GPLCompatible = true
	lp, err := k.LoadProgram(prog)
	if err != nil {
		fmt.Printf("\nverifier: REJECTED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nverifier: ACCEPTED (%d insns processed, %d states)\n",
		lp.Res.InsnProcessed, lp.Res.TotalStates)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bpfasm: %v\n", err)
	os.Exit(1)
}

// usage reports a bad flag value and exits 2, as flag does for a bad
// flag.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "bpfasm: %v\n", err)
	os.Exit(2)
}
