package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/kernel"
)

func TestTable2SmallBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("full-budget campaign; concurrency is covered elsewhere under -race")
	}
	res, err := Table2(12000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(res.Rows))
	}
	// BVF must dominate: strictly more bugs than either baseline, and at
	// least one verifier correctness bug even at this small budget.
	if res.Total["BVF"] <= res.Total["Syzkaller"] || res.Total["BVF"] <= res.Total["Buzzer"] {
		t.Errorf("BVF=%d Syz=%d Buzz=%d — BVF should dominate",
			res.Total["BVF"], res.Total["Syzkaller"], res.Total["Buzzer"])
	}
	if res.Verifier["BVF"] == 0 {
		t.Error("BVF found no verifier correctness bugs")
	}
	if res.Verifier["Syzkaller"] != 0 || res.Verifier["Buzzer"] != 0 {
		t.Errorf("baselines found verifier bugs: syz=%d buzz=%d",
			res.Verifier["Syzkaller"], res.Verifier["Buzzer"])
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Error("Print output malformed")
	}
}

func TestFig6SmallBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("full-budget campaign; concurrency is covered elsewhere under -race")
	}
	res, err := Fig6(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 9 {
		t.Fatalf("series = %d, want 9 (3 tools x 3 versions)", len(res.Series))
	}
	final := func(tool string, v kernel.Version) int {
		for _, s := range res.Series {
			if s.Tool == tool && s.Version == v {
				return s.Final
			}
		}
		return -1
	}
	for _, v := range kernel.AllVersions {
		if !(final("BVF", v) > final("Syzkaller", v) && final("Syzkaller", v) > final("Buzzer", v)) {
			t.Errorf("%s ordering wrong: BVF=%d Syz=%d Buzz=%d",
				v, final("BVF", v), final("Syzkaller", v), final("Buzzer", v))
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("Print output missing Table 3")
	}
}

func TestAcceptanceShape(t *testing.T) {
	if raceEnabled {
		t.Skip("full-budget campaign; concurrency is covered elsewhere under -race")
	}
	res, err := Acceptance(4000)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(tool string) float64 {
		for _, r := range res.Rows {
			if r.Tool == tool {
				return r.Rate
			}
		}
		return -1
	}
	if bvf := rate("BVF"); bvf < 0.35 || bvf > 0.70 {
		t.Errorf("BVF acceptance %.2f outside band", bvf)
	}
	if syz := rate("Syzkaller"); syz < 0.10 || syz > 0.45 {
		t.Errorf("Syzkaller acceptance %.2f outside band", syz)
	}
	if bz := rate("Buzzer(random)"); bz > 0.06 {
		t.Errorf("Buzzer(random) acceptance %.2f too high", bz)
	}
	if bz := rate("Buzzer"); bz < 0.85 {
		t.Errorf("Buzzer acceptance %.2f too low", bz)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Acceptance") {
		t.Error("Print output malformed")
	}
}

func TestSelftestCorpus(t *testing.T) {
	_, corpus, err := SelftestCorpus(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 60 {
		t.Fatalf("corpus = %d", len(corpus))
	}
	for _, lp := range corpus {
		hasMem := false
		for _, ins := range lp.Verified.Insns {
			if ins.IsMemLoad() || ins.IsMemStore() || ins.IsAtomic() {
				hasMem = true
			}
		}
		if !hasMem {
			t.Fatal("corpus program without load/store")
		}
	}
}

func TestOverheadShape(t *testing.T) {
	res, err := Overhead(80, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The instrumentation must cost real instructions; the paper reports
	// ~90% slowdown and ~3.0x footprint. The executed-instruction count
	// is deterministic (+204% on this corpus) where wall clock is not, so
	// it carries the assertion and the wall-clock slowdown is only logged.
	if res.DynamicSlowdown < 1.8 || res.DynamicSlowdown > 2.3 {
		t.Errorf("executed-instruction slowdown = %.0f%%, want about 204%%", 100*res.DynamicSlowdown)
	}
	t.Logf("wall-clock slowdown %.0f%%, executed instructions +%.0f%%", 100*res.MeanSlowdown, 100*res.DynamicSlowdown)
	if res.MeanFootprint < 1.5 || res.MeanFootprint > 6 {
		t.Errorf("footprint = %.2fx outside plausible band", res.MeanFootprint)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "footprint") {
		t.Error("Print output malformed")
	}
}

func TestCVEOnV515(t *testing.T) {
	if raceEnabled {
		t.Skip("full-budget campaign; concurrency is covered elsewhere under -race")
	}
	// The CVE knob only exists on v5.15; a campaign there should find it.
	tool := Tools()[0]
	st, err := runCampaign(tool, kernel.V515, 3, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasBug(bugs.CVE2022_23222) {
		t.Errorf("CVE-2022-23222 not rediscovered on v5.15: %v", st.BugIDs())
	}
}

func TestAblationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("full-budget campaign; concurrency is covered elsewhere under -race")
	}
	res, err := Ablation(8000)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, row := range res.Rows {
		byName[row.Variant] = row
	}
	full := byName["BVF (full)"]
	if full.Bugs == 0 || full.Verifier == 0 {
		t.Fatalf("full variant found nothing: %+v", full)
	}
	// No call frames: coverage must drop sharply (helpers carry it).
	if nc := byName["no call frames"]; nc.Coverage >= full.Coverage {
		t.Errorf("call-frame ablation did not reduce coverage: %d vs %d", nc.Coverage, full.Coverage)
	}
	// No risky shapes: strictly fewer verifier correctness bugs.
	if nr := byName["no risky shapes"]; nr.Verifier >= full.Verifier {
		t.Errorf("risky ablation did not reduce verifier bugs: %d vs %d", nr.Verifier, full.Verifier)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "ablation") {
		t.Error("Print malformed")
	}
}

func TestSanitizerAblation(t *testing.T) {
	res, err := SanitizerAblation(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatal("rows")
	}
	if res.Rows[1].Footprint <= res.Rows[0].Footprint {
		t.Errorf("no-skip policy not more expensive: %.2f vs %.2f",
			res.Rows[1].Footprint, res.Rows[0].Footprint)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "skip rules") {
		t.Error("Print malformed")
	}
}
