package triage

import (
	"math/rand"
	"testing"

	"repro/internal/btf"
	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// witnessSource feeds the campaign the minimal bug-3 soundness witness:
// the kfunc-backtracking knob collapses R6's AND-bounded scalar to the
// constant 0 while the interpreter holds the real ctx-derived value, so
// only the differential oracle — not indicator 1 or 2 — can see the lie.
type witnessSource struct{}

func (witnessSource) Name() string { return "oracle-witness" }

func (witnessSource) Generate(*rand.Rand, []core.MapHandle) *isa.Program {
	return &isa.Program{
		Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "oracle_witness",
		Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
			isa.Alu64Imm(isa.ALUAnd, isa.R6, 0xff),
			isa.CallKfunc(int32(btf.KfuncRcuReadLock)),
			isa.Mov64Reg(isa.R0, isa.R6),
			isa.Exit(),
		},
	}
}

// TestOracleCatchesArmedBug is the end-to-end acceptance path for
// IndicatorSoundness: a campaign with the bounds-tracking bug armed and
// the oracle on must surface the soundness finding, attribute it to the
// knob, and carry it through the full gauntlet to a Stable
// verifier-correctness verdict with a minimized reproducer.
func TestOracleCatchesArmedBug(t *testing.T) {
	env := Env{
		Version: kernel.BPFNext, Sanitize: true, Oracle: true,
		Bugs: bugs.Of(bugs.Bug3KfuncBacktrack),
	}
	c := core.NewCampaign(core.CampaignConfig{
		Source: witnessSource{}, Version: env.Version,
		OverrideBugs: env.Bugs, Sanitize: env.Sanitize, Oracle: env.Oracle,
		Seed: 3,
	})
	st, err := c.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	wantKey := core.BugKey{
		ID: bugs.Bug3KfuncBacktrack, Indicator: kernel.IndicatorSoundness, Kind: "soundness:tnum",
	}
	rec := st.Bugs[wantKey]
	if rec == nil {
		t.Fatalf("campaign missed the soundness finding; bugs = %v, anomalies = %v",
			st.Bugs, st.OtherAnomalies)
	}
	if st.SoundnessViolations == 0 {
		t.Error("no soundness violations counted")
	}

	store, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	g := New(Config{}, store)
	added, err := g.Ingest(st, env)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("gauntlet ingested nothing")
	}
	sum, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	var found *Finding
	for _, f := range sum.Findings {
		if f.Raw.Key == wantKey {
			found = f
		}
	}
	if found == nil {
		t.Fatalf("soundness finding absent from gauntlet summary")
	}
	if found.Verdict != Stable {
		t.Fatalf("verdict = %v (%s), want Stable", found.Verdict, found.Note)
	}
	if found.Class != ClassVerifierCorrectness {
		t.Errorf("class = %v, want verifier-correctness", found.Class)
	}
	if found.Minimized == nil {
		t.Errorf("no minimized reproducer (%s)", found.MinimizeNote)
	} else if n := len(found.Minimized.Insns); n > len(rec.Program.Insns) {
		t.Errorf("minimized reproducer grew: %d > %d insns", n, len(rec.Program.Insns))
	}
	// The witness needs kfuncs and the armed knob: it must not reproduce
	// everywhere, and the matrix must record that honestly.
	for _, cell := range found.Matrix {
		if cell.Version == kernel.V515 && cell.Reproduced {
			t.Errorf("v5.15 (no kfuncs) claims reproduction: %+v", cell)
		}
	}
}
