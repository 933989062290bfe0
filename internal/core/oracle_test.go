package core

import (
	"reflect"
	"testing"

	"repro/internal/bugs"
	"repro/internal/kernel"
)

// TestOracleCleanOnSeedCampaign: on an unbugged kernel the verifier's
// claims are sound by construction, so a fixed-seed campaign replayed
// under the differential oracle must assert many claims and violate
// none. A violation here is a false positive in the oracle's state
// abstraction (or a genuine soundness bug in our fixed verifier) — both
// are regressions this test pins down.
func TestOracleCleanOnSeedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("long campaign")
	}
	for _, seed := range []int64{1, 11} {
		c := NewCampaign(CampaignConfig{
			Source: BVFSource(true), Version: kernel.BPFNext,
			OverrideBugs: bugs.None(), Sanitize: true, Seed: seed,
			Oracle: true,
		})
		st, err := c.Run(15000)
		if err != nil {
			t.Fatal(err)
		}
		if st.SoundnessChecks == 0 {
			t.Fatal("oracle asserted no claims — the replay hook is not firing")
		}
		if st.SoundnessViolations != 0 {
			t.Errorf("seed %d: oracle reported %d violation(s) on an unbugged kernel; anomalies: %v",
				seed, st.SoundnessViolations, st.OtherAnomalies)
		}
		for key := range st.Bugs {
			if key.Indicator == kernel.IndicatorSoundness {
				t.Errorf("seed %d: spurious soundness finding %v", seed, key)
			}
		}
		if st.StageNanos["oracle"] <= 0 {
			t.Error("no oracle stage time booked")
		}
		t.Logf("seed %d: oracle asserted %d claims across %d accepted programs (%.1fms)",
			seed, st.SoundnessChecks, st.Accepted, float64(st.StageNanos["oracle"])/1e6)
	}
}

// TestOracleSeededCampaignGolden pins a fixed-seed campaign with the
// oracle armed on bpf-next's default bug set: its verdicts, coverage and
// bugs, and how many claims the oracle checked and how many replays it
// caught violating one. TestSeededCampaignDeterminism runs with the
// oracle off, so this is the golden that fails when claim recording or
// the replay drifts.
func TestOracleSeededCampaignGolden(t *testing.T) {
	st, err := NewCampaign(CampaignConfig{
		Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true,
		Seed: 7, Oracle: true,
	}).Run(8000)
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		Accepted, CovCount int
		Bugs               []bugs.ID
		Checks, Violations int
	}
	got := golden{st.Accepted, st.Coverage.Count(), st.BugIDs(), st.SoundnessChecks, st.SoundnessViolations}
	want := golden{
		Accepted: 2894, CovCount: 243,
		Bugs: []bugs.ID{
			bugs.Bug1NullnessProp, bugs.Bug2TaskAccess, bugs.Bug3KfuncBacktrack,
			bugs.Bug4TracePrintk, bugs.Bug5Contention, bugs.Bug6SendSignal,
			bugs.Bug7Dispatcher, bugs.Bug8Kmemdup, bugs.Bug9BucketIter,
			bugs.Bug11XDPDevProg,
		},
		Checks: 532744, Violations: 8,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("oracle campaign drifted from golden:\n got %+v\nwant %+v", got, want)
	}
}
