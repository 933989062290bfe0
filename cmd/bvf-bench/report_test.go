package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
)

// TestBenchReportStagesSumToSeconds pins the stage-accounting invariant:
// stage_seconds (including the explicit "other" residual) sums to seconds
// exactly, so per-stage shares in a report are shares of the real wall
// clock, not of an unstated subset.
func TestBenchReportStagesSumToSeconds(t *testing.T) {
	st := core.NewStats("bvf", kernel.BPFNext)
	st.Iterations = 3000
	st.StageNanos["gen"] = int64(40 * time.Millisecond)
	st.StageNanos["verify"] = int64(90 * time.Millisecond)
	st.StageNanos["exec"] = int64(25 * time.Millisecond)
	st.StageNanos["triage"] = int64(10 * time.Millisecond)
	st.StageNanos["cache"] = int64(2 * time.Millisecond)

	rep := buildReport(st, 200*time.Millisecond, 1_000_000, 64_000_000, false, true, 8)

	other, ok := rep.StageSeconds["other"]
	if !ok {
		t.Fatalf("stage_seconds missing the %q residual: %v", "other", rep.StageSeconds)
	}
	if other <= 0 {
		t.Errorf("other residual = %v, want > 0 (stages account for 167ms of 200ms)", other)
	}
	sum := 0.0
	for _, s := range rep.StageSeconds {
		sum += s
	}
	if diff := math.Abs(sum - rep.Seconds); diff > 1e-12 {
		t.Errorf("stage_seconds sum to %v, seconds = %v (diff %g)", sum, rep.Seconds, diff)
	}
}

// Stage clocks can overshoot the outer wall clock by timer granularity;
// the report must clamp rather than emit a negative "other".
func TestBenchReportStageOvershootClamped(t *testing.T) {
	st := core.NewStats("bvf", kernel.BPFNext)
	st.Iterations = 100
	st.StageNanos["gen"] = int64(60 * time.Millisecond)
	st.StageNanos["verify"] = int64(60 * time.Millisecond)

	rep := buildReport(st, 100*time.Millisecond, 1000, 1000, false, false, 1)

	if rep.StageSeconds["other"] != 0 {
		t.Errorf("other = %v, want 0 when stages overshoot", rep.StageSeconds["other"])
	}
	sum := 0.0
	for name, s := range rep.StageSeconds {
		if s < 0 {
			t.Errorf("stage %q is negative: %v", name, s)
		}
		sum += s
	}
	if diff := math.Abs(sum - rep.Seconds); diff > 1e-12 {
		t.Errorf("clamped stage_seconds sum to %v, seconds = %v", sum, rep.Seconds)
	}
}

// The report carries the cache counters straight from Stats so regression
// diffs can tell a cold cache from a disabled one.
func TestBenchReportCacheCounters(t *testing.T) {
	st := core.NewStats("bvf", kernel.BPFNext)
	st.Iterations = 10
	st.CacheHits = 7
	st.CacheMisses = 3
	st.MutateBatches = 4
	st.MutateSiblings = 32

	rep := buildReport(st, time.Second, 0, 0, false, true, 8)
	if !rep.Cached || rep.CacheHits != 7 || rep.CacheMisses != 3 {
		t.Errorf("cache fields not propagated: %+v", rep)
	}
	if rep.CacheHitRate != 0.7 {
		t.Errorf("cache_hit_rate = %v, want 0.7", rep.CacheHitRate)
	}
	if rep.MutateBatch != 8 || rep.MutateBatches != 4 || rep.MutateSiblings != 32 {
		t.Errorf("mutation-scheduler fields not propagated: %+v", rep)
	}
}

// The baseline gate fails on any count drift, not only on throughput: at
// a fixed seed and budget the campaign is deterministic, so differing
// counts mean changed behaviour even when the speed is unchanged.
func TestCheckBaselineComparesCounts(t *testing.T) {
	base := BenchReport{
		Iterations: 100000, ItersPerSec: 40000,
		Accepted: 38381, CoverageSites: 270, Bugs: 12,
	}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkBaseline(base, path); err != nil {
		t.Fatalf("identical report failed the gate: %v", err)
	}
	for name, mutate := range map[string]func(*BenchReport){
		"iterations":     func(r *BenchReport) { r.Iterations-- },
		"accepted":       func(r *BenchReport) { r.Accepted++ },
		"coverage_sites": func(r *BenchReport) { r.CoverageSites-- },
		"bugs":           func(r *BenchReport) { r.Bugs++ },
	} {
		rep := base
		mutate(&rep)
		err := checkBaseline(rep, path)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s drift: err = %v, want a count error naming %s", name, err, name)
		}
	}
	slow := base
	slow.ItersPerSec = 0.7 * base.ItersPerSec
	if err := checkBaseline(slow, path); err == nil {
		t.Error("a 0.70x throughput report passed the 0.80x floor")
	}
}
