package core

import (
	goruntime "runtime"
	"testing"

	"repro/internal/kernel"
)

// campaignAllocBudget bounds the heap allocations of one iteration of a
// fixed-seed default campaign. Seed 7 makes about 12.9 per iteration;
// before mutants shared one copy of their parent and executions, frame
// bytes and allocation records were reused, it made 23.8.
const campaignAllocBudget = 18

// TestCampaignAllocBudget: a default campaign allocates at most
// campaignAllocBudget objects per iteration. The race detector's
// sync.Pool drops pooled objects at random, which moves the count, so
// the test skips itself there.
func TestCampaignAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops objects at random")
	}
	c := NewCampaign(CampaignConfig{Source: BVFSource(true), Version: kernel.BPFNext, Sanitize: true, Seed: 7})
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	st, err := c.Run(20000)
	goruntime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(m1.Mallocs-m0.Mallocs) / float64(st.Iterations); per > campaignAllocBudget {
		t.Errorf("campaign allocates %.2f objects per iteration, budget %d", per, campaignAllocBudget)
	}
}
