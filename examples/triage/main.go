// Triage: the paper's §6.5 workflow, automated. A short fuzzing burst
// finds bugs; the oracle classifies each under one of the two indicators;
// the validation gauntlet replays every finding, attributes its root
// cause across kernel versions, and minimizes the reproducer into a
// stable, reportable program — the artifact the paper's authors sent to
// the kernel maintainers.
//
// Run with: go run ./examples/triage
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/triage"
)

func main() {
	fmt.Println("fuzzing bpf-next until the first stable verifier correctness bug...")
	env := triage.Env{Version: kernel.BPFNext, Sanitize: true}
	c := core.NewCampaign(core.CampaignConfig{
		Source:   core.BVFSource(true),
		Version:  env.Version,
		Sanitize: env.Sanitize,
		Seed:     7,
	})
	store, err := triage.Open("")
	if err != nil {
		log.Fatal(err)
	}
	g := triage.New(triage.Config{}, store)
	var found *triage.Finding
	for total := 0; found == nil && total < 200000; total += 2000 {
		st, err := c.Run(2000)
		if err != nil {
			log.Fatal(err)
		}
		// Ingest skips findings already in the store, so each round
		// validates only what the last 2000 iterations discovered.
		if _, err := g.Ingest(st, env); err != nil {
			log.Fatal(err)
		}
		sum, err := g.Run()
		if err != nil {
			log.Fatal(err)
		}
		found = firstStable(sum)
	}
	if found == nil {
		log.Fatal("no stable verifier correctness bug within the budget")
	}

	id := found.Raw.Key.ID
	fmt.Printf("\nfound at iteration %d:\n", found.Raw.FoundAt)
	fmt.Printf("  anomaly:    %s (indicator #%d)\n", found.Raw.Key.Kind, found.Raw.Key.Indicator)
	fmt.Printf("  fault:      %s\n", found.Raw.Err)
	fmt.Printf("  triage:     %v (%s), %s on %v\n", id, id.Component(), found.Verdict, found.TriggerVersions)
	fmt.Printf("  reproducer: %d insns generated -> %d insns minimized\n\n",
		len(found.Raw.Program.Insns), len(found.Minimized.Insns))
	fmt.Println("minimized stable reproducer:")
	fmt.Print(found.Minimized)

	// Confirm stability: the minimized program triggers the same bug on
	// a pristine kernel.
	rep := core.NewReproducer(env.Version, env.Bugs, env.Sanitize, env.Oracle, id)
	if !rep.Check(found.Minimized) {
		log.Fatal("reproducer is not stable")
	}
	fmt.Println("\nreproducer confirmed stable on a pristine buggy kernel")
	fmt.Println("triage example OK")
}

// firstStable returns the earliest-found stable verifier-correctness
// finding with a minimized reproducer, or nil.
func firstStable(sum *triage.Summary) *triage.Finding {
	var first *triage.Finding
	for _, f := range sum.Findings {
		if f.Verdict != triage.Stable || f.Class != triage.ClassVerifierCorrectness || f.Minimized == nil {
			continue
		}
		if first == nil || f.Raw.FoundAt < first.Raw.FoundAt {
			first = f
		}
	}
	return first
}
