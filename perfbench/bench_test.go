package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

func TestPercentileAndTail(t *testing.T) {
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	if got := percentile(seq(10), 50); got != 5 {
		t.Errorf("p50 of 1..10 = %d, want 5", got)
	}
	if got := percentile(seq(10), 99); got != 10 {
		t.Errorf("p99 of 1..10 = %d, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
	for _, tc := range []struct {
		n        int
		wantPct  float64
		wantTail int64
	}{
		{n: 19, wantPct: 0, wantTail: 0},    // no percentile leaves ten above it
		{n: 20, wantPct: 50, wantTail: 10},  // p50 leaves exactly ten
		{n: 100, wantPct: 90, wantTail: 90}, // p95 would leave five
		{n: 1000, wantPct: 99, wantTail: 990},
		{n: 200000, wantPct: 99.99, wantTail: 199980},
	} {
		got, pct := tail(seq(tc.n))
		if pct != tc.wantPct || got != tc.wantTail {
			t.Errorf("tail of 1..%d = (%d, p%v), want (%d, p%v)", tc.n, got, pct, tc.wantTail, tc.wantPct)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "parent", parent: -1, start: 0, end: 100},
		{name: "child", parent: 0, start: 10, end: 40},
		{name: "child", parent: 0, start: 30, end: 60},  // overlaps the first child
		{name: "child", parent: 0, start: 90, end: 120}, // runs past the parent
		{name: "grandchild", parent: 1, start: 15, end: 20},
		{name: "root", parent: -1, start: 200, end: 250},
	}
	ls := analyze(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 of its 100 ns.
	if got := ls["parent"].self; got != 40 {
		t.Errorf("parent self = %d, want 40", got)
	}
	// Child self times: 30-5, 30 and 30.
	if got := ls["child"].self; got != 85 {
		t.Errorf("child self = %d, want 85", got)
	}
	if got := ls["child"].busy; got != 90 {
		t.Errorf("child busy = %d, want 90", got)
	}
	if got := ls["root"].self; got != 50 {
		t.Errorf("childless span self = %d, want 50", got)
	}
}

func TestFailRate(t *testing.T) {
	st := core.NewStats("BVF", kernel.BPFNext)
	st.Iterations = 1000
	st.CrashCount = 1
	st.ShardRestarts = 1
	st.WatchdogTrips["verify"] = 2
	st.WatchdogTrips["exec"] = 1
	// Rejections are verdicts, not failures.
	st.ErrnoHist[22] = 500
	f := statsFailures(st)
	failed, attempted, rate := f.rate()
	if failed != 5 || attempted != 1000 || rate != 0.005 {
		t.Errorf("fuzz failures = %d/%d (%v), want 5/1000 (0.005)", failed, attempted, rate)
	}
	f.rpcs, f.rpcFails, f.refunds = 100, 3, 2
	failed, attempted, rate = f.rate()
	if failed != 10 || attempted != 1100 || rate != 10.0/1100 {
		t.Errorf("service failures = %d/%d (%v), want 10/1100", failed, attempted, rate)
	}
	if _, _, rate := (failCounts{}).rate(); rate != 0 {
		t.Errorf("rate with nothing attempted = %v, want 0", rate)
	}
}

func TestSeedFlagTakesAnyInteger(t *testing.T) {
	for _, tc := range []struct {
		text string
		want int64
	}{
		{"7", 7},
		{"-5", -5},
		{"9223372036854775807", 9223372036854775807},
		{"9223372036854775808", -9223372036854775808},
		{"18446744073709551615", -1},
		{"18446744073709551623", 7}, // 2^64 + 7
		{" 42\n", 42},
	} {
		var s seedFlag
		if err := s.Set(tc.text); err != nil || int64(s) != tc.want {
			t.Errorf("seed %q = %d (%v), want %d", tc.text, int64(s), err, tc.want)
		}
	}
	for _, bad := range []string{"", "1.5", "0x10", "seven"} {
		var s seedFlag
		if err := s.Set(bad); err == nil {
			t.Errorf("seed %q was accepted as %d", bad, int64(s))
		}
	}
}

func TestResultLineMarksMismatches(t *testing.T) {
	r := newResult()
	r.metrics["setup_s"] = 0.5
	r.check("accepted", 10, 10)
	line, err := r.line()
	if err != nil || !strings.Contains(line, `"correct":true`) {
		t.Fatalf("clean result line = %s, %v", line, err)
	}
	r.check("accepted", 11, 10)
	if len(r.diffs) != 1 || !strings.Contains(r.diffs[0], "got 11, want 10") {
		t.Fatalf("diffs = %q", r.diffs)
	}
	if line, _ := r.line(); !strings.Contains(line, `"correct":false`) {
		t.Errorf("mismatching result line = %s", line)
	}
	r.metrics["no_such_metric"] = 1
	if _, err := r.line(); err == nil {
		t.Error("an undeclared metric was printed")
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkFile keeps BENCHMARK.json and the metric
// and workload declarations in step.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var fileE2E, fileLayer, goE2E, goLayer []string
	for _, m := range b.EndToEnd {
		fileE2E = append(fileE2E, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range b.PerLayer {
		fileLayer = append(fileLayer, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, d := range endToEnd {
		goE2E = append(goE2E, d.name+" "+d.unit+" "+d.better)
	}
	for _, d := range perLayer {
		goLayer = append(goLayer, d.name+" "+d.unit+" "+d.better)
		if d.moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", d.name)
		}
	}
	if strings.Join(fileE2E, "\n") != strings.Join(goE2E, "\n") {
		t.Errorf("end_to_end in BENCHMARK.json:\n%s\ndeclared:\n%s", strings.Join(fileE2E, "\n"), strings.Join(goE2E, "\n"))
	}
	if strings.Join(fileLayer, "\n") != strings.Join(goLayer, "\n") {
		t.Errorf("per_layer in BENCHMARK.json:\n%s\ndeclared:\n%s", strings.Join(fileLayer, "\n"), strings.Join(goLayer, "\n"))
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || d.unit == "" {
			t.Errorf("metric %q (unit %q) has a bad name or no unit", d.name, d.unit)
		}
	}
	var fileWL, goWL []string
	for _, w := range b.Workloads {
		fileWL = append(fileWL, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		goWL = append(goWL, w.name+": "+w.why)
	}
	if strings.Join(fileWL, "\n") != strings.Join(goWL, "\n") {
		t.Errorf("workloads in BENCHMARK.json:\n%s\ndeclared:\n%s", strings.Join(fileWL, "\n"), strings.Join(goWL, "\n"))
	}
}

// TestPrintedMetricsAreDeclared runs every workload briefly in both modes
// and checks that the final line carries exactly the declared metrics.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	want := map[string][]string{"0": names(endToEnd), "1": names(perLayer)}
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0", "-trace", mode,
				"-budget", "1200", "-campaigns", "1"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.name, mode, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, mode, err)
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				if d, _ := declared(name); v.Unit != d.unit {
					t.Errorf("%s: %s printed with unit %q, declared %q", w.name, name, v.Unit, d.unit)
				}
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want[mode], " ") {
				t.Errorf("%s trace %s printed\n%v\nwant\n%v", w.name, mode, got, want[mode])
			}
			if !res.Correct || res.Attempted < 1200 || res.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.name, mode, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

func names(decls []metricDecl) []string {
	var out []string
	for _, d := range decls {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}
