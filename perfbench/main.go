// Command perfbench is the repository's benchmark. It runs one named
// workload at a given seed for a given time and prints, as the last line
// of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) replays the workload's campaign through each layer's public
// entry points, prints the per-layer metrics and writes its spans under
// .bench_build/trace. Both runs check their outputs: every repeat of a
// campaign must reproduce its first run, and otherwise perfbench prints
// the difference and exits with status 1. See README.md.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh -workload fuzz-default -seed 7 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// subSeedStride spaces the seeds of a run's campaigns far enough apart
// that no shard seed (campaign seed + shard index) of one run's seed
// equals one of another small run seed.
const subSeedStride = 1_000_003

// buildDir holds everything the benchmark writes.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := new(seedFlag)
	*seed = 7
	fs.Var(seed, "seed", "seed every input of the run derives from: any integer; one outside int64 is taken modulo 2^64")
	seconds := fs.Float64("seconds", 20, "measuring time: sets how many campaigns an untraced run makes, and how many passes a traced run makes (at least two)")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	budget := fs.Int("budget", 0, "iterations per campaign (0: the workload's budget)")
	campaigns := fs.Int("campaigns", 0, "campaigns per pass (0: the workload's count)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *budget > 0 {
		w.budget = *budget
	}
	if *campaigns > 0 {
		w.campaigns = *campaigns
	}
	limit := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = measureTraced(w, int64(*seed), limit, stderr)
	} else {
		res, err = measure(w, int64(*seed), limit, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, d := range res.diffs {
		fmt.Fprintf(stderr, "perfbench: %s: mismatch: %s\n", w.name, d)
	}
	line, err := res.line()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(res.diffs) > 0 {
		return 1
	}
	return 0
}

// seedFlag is the -seed flag. It takes any decimal integer, so a seed
// drawn from the whole unsigned 64-bit range is accepted too; a value
// outside int64 is reduced modulo 2^64 into it, the same seed for the same
// text.
type seedFlag int64

func (s *seedFlag) String() string { return strconv.FormatInt(int64(*s), 10) }

func (s *seedFlag) Set(text string) error {
	v, ok := new(big.Int).SetString(strings.TrimSpace(text), 10)
	if !ok {
		return fmt.Errorf("not an integer: %q", text)
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 64)
	*s = seedFlag(int64(new(big.Int).Mod(v, mod).Uint64()))
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// subSeed is the seed of campaign j of a run.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*subSeedStride }

// result is what one run prints.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// diffs lists every correctness check that failed.
	diffs []string
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// line renders the result as the final JSON line. Every metric must be
// declared, so a typo cannot print an undeclared name.
func (r *result) line() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.diffs) == 0, r.attempted, r.failed, make(map[string]value)}
	for name, v := range r.metrics {
		d, ok := declared(name)
		if !ok {
			return "", fmt.Errorf("metric %q is not declared", name)
		}
		out.Metrics[name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// check records a correctness failure unless got equals want.
func (r *result) check(what string, got, want any) {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		r.diffs = append(r.diffs, fmt.Sprintf("%s: got %v, want %v", what, got, want))
	}
}

// runOnce runs one untraced campaign of the workload.
func (w workload) runOnce(seed int64) (*outcome, error) {
	if w.service {
		sr, err := runService(w.cfg, seed, w.budget, filepath.Join(buildDir, "state"), nil)
		if err != nil {
			return nil, err
		}
		return sr.out, nil
	}
	return runFuzz(w.cfg, seed, w.budget)
}

// compareOutcome checks a repeated campaign against its first run.
func (r *result) compareOutcome(label string, got, want *outcome) {
	r.check(label+" accepted", got.accepted, want.accepted)
	r.check(label+" coverage_sites", got.coverage, want.coverage)
	r.check(label+" bug IDs", bugSet(got.bugs), bugSet(want.bugs))
	r.check(label+" triage findings", got.findings, want.findings)
	r.check(label+" stable findings", got.stable, want.stable)
}

// measure is the untraced run. It runs the run's campaigns, each at its
// own seed, then repeats the first one, which must reproduce its first
// run. Per-campaign times are medians over every campaign but the first
// run of the process, which pays for cold caches; on the fuzz workloads
// setup_s also takes in setupReps more set-ups after each campaign. The
// deterministic counts are means over the distinct campaigns.
func measure(w workload, seed int64, limit time.Duration, stderr io.Writer) (*result, error) {
	res := newResult()
	k := w.campaignsFor(limit)
	var rates, triages, setups, allocs, mems []float64
	var iters, accepted, cov, found int
	var first *outcome
	for j := 0; j <= k; j++ {
		s := subSeed(seed, j%k)
		out, err := w.runOnce(s)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("seed %d", s)
		fmt.Fprintf(stderr, "perfbench: %s campaign %d seed %d: setup %.6f s, fuzz %.4f s, %d iterations, triage %.4f s\n",
			w.name, j, s, out.setup.Seconds(), out.fuzz.Seconds(), out.iters, out.triage.Seconds())
		res.check(label+" iterations", out.iters, w.budget)
		res.attempted += out.ops
		res.failed += out.failures
		switch {
		case j == 0:
			first = out
		case j == k:
			res.compareOutcome(label+" repeat", out, first)
		}
		if j < k {
			iters += out.iters
			accepted += out.accepted
			cov += out.coverage
			found += len(out.bugs)
		}
		if j > 0 {
			rates = append(rates, float64(out.iters)/out.fuzz.Seconds())
			triages = append(triages, out.triage.Seconds())
			setups = append(setups, out.setup.Seconds())
			for r := 0; r < setupReps && !w.service; r++ {
				d, err := fuzzSetup(w.cfg, s)
				if err != nil {
					return nil, err
				}
				setups = append(setups, d.Seconds())
			}
			allocs = append(allocs, float64(out.allocs)/float64(out.iters))
			mems = append(mems, float64(out.peakMem)/(1<<20))
		}
	}
	m := res.metrics
	m["setup_s"] = median(setups)
	m["iters_per_sec"] = median(rates)
	m["triage_s"] = median(triages)
	m["allocs_per_iter"] = median(allocs)
	m["coverage_sites"] = float64(cov) / float64(k)
	m["bugs_found"] = float64(found) / float64(k)
	m["accept_rate"] = float64(accepted) / float64(iters)
	m["peak_rss_mb"] = median(mems)
	return res, nil
}

// tracedPass is one traced replay of the run's first campaign.
type tracedPass struct {
	metrics map[string]float64
	spans   []span
	rate    float64 // iterations per second of the traced replay
	// det are the counts every replay of one seed must reproduce.
	det                  map[string]any
	iters, accepted, cov int
	fails                failCounts
}

// measureTraced is the traced run. Each pass runs the run's first
// campaign untraced and then replays it traced, until the time is up (at
// least two passes). Every pass must reproduce the first. Counts and busy
// times are medians over the traced passes, latency percentiles are taken
// over the pooled spans, and the last pass's spans are written out.
func measureTraced(w workload, seed int64, limit time.Duration, stderr io.Writer) (*result, error) {
	res := newResult()
	start := time.Now()
	var ref *outcome
	var untraced []float64
	var passes []*tracedPass
	var pooled []span
	for pass := 0; pass < 2 || time.Since(start) < limit; pass++ {
		label := fmt.Sprintf("seed %d pass %d", seed, pass+1)
		out, err := w.runOnce(seed)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = out
		} else {
			res.compareOutcome(label, out, ref)
		}
		untraced = append(untraced, float64(out.iters)/out.fuzz.Seconds())
		res.attempted += out.ops
		res.failed += out.failures

		var tp *tracedPass
		if w.service {
			tp, err = tracedService(w, seed)
		} else {
			tp, err = tracedFuzz(w, seed)
		}
		if err != nil {
			return nil, err
		}
		res.check(label+" traced iterations", tp.iters, w.budget)
		// The replay must describe the program the campaign runs: a change
		// to the campaign's schedule or defaults that the mirror does not
		// follow fails here.
		res.check(label+" replay accepted", tp.accepted, ref.accepted)
		res.check(label+" replay coverage_sites", tp.cov, ref.coverage)
		res.check(label+" replay bug IDs", tp.det["bug IDs"], bugSet(ref.bugs))
		if pass > 0 {
			for _, k := range sortedKeys(tp.det) {
				res.check(label+" traced "+k, tp.det[k], passes[0].det[k])
			}
		}
		f, a, _ := tp.fails.rate()
		res.failed += f
		res.attempted += a
		passes = append(passes, tp)
		pooled = appendSpans(pooled, tp.spans)
	}
	m := res.metrics
	for _, d := range perLayer {
		m[d.name] = medianOf(passes, func(p *tracedPass) float64 { return p.metrics[d.name] })
	}
	latencyMetrics(pooled, m)
	last := passes[len(passes)-1]
	m["fail_rate"] = ratio(int64(res.failed), int64(res.attempted))
	m["trace.iters_per_sec"] = medianOf(passes, func(p *tracedPass) float64 { return p.rate })
	m["trace.untraced_iters_per_sec"] = median(untraced)
	m["trace.overhead"] = 1 - m["trace.iters_per_sec"]/m["trace.untraced_iters_per_sec"]
	m["trace.accept_rate"] = float64(last.accepted) / float64(last.iters)
	m["trace.campaign_accept_rate"] = float64(ref.accepted) / float64(ref.iters)
	m["trace.coverage_sites"] = float64(last.cov)
	m["trace.campaign_coverage_sites"] = float64(ref.coverage)
	m["trace.spans"] = float64(len(last.spans))
	p, err := writeSpans(filepath.Join(buildDir, "trace"), fmt.Sprintf("%s-seed%d.tsv.gz", w.name, seed), last.spans)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(last.spans), p)
	return res, nil
}

// appendSpans appends spans to dst, rebasing their parent indices.
func appendSpans(dst, spans []span) []span {
	base := int32(len(dst))
	for _, sp := range spans {
		if sp.parent >= 0 {
			sp.parent += base
		}
		dst = append(dst, sp)
	}
	return dst
}

// tracedFuzz replays a fuzz workload's campaign through the mirror.
func tracedFuzz(w workload, seed int64) (*tracedPass, error) {
	mr, err := runMirror(w.cfg, seed, w.budget)
	if err != nil {
		return nil, err
	}
	tp := &tracedPass{
		metrics: fuzzLayers(mr), spans: mr.spans,
		rate:  float64(mr.stats.Iterations) / mr.fuzz.Seconds(),
		iters: mr.stats.Iterations, accepted: mr.stats.Accepted, cov: mr.stats.Coverage.Count(),
		fails: statsFailures(mr.stats),
	}
	tp.det = map[string]any{
		"accepted":                mr.stats.Accepted,
		"coverage_sites":          mr.stats.Coverage.Count(),
		"bug IDs":                 bugSet(mr.stats.BugIDs()),
		"verifier.insn_processed": tp.metrics["verifier.insn_processed"],
		"runtime.steps":           tp.metrics["runtime.steps"],
		"oracle.checks":           tp.metrics["oracle.checks"],
	}
	return tp, nil
}

// tracedService runs the service workload's campaign with its RPCs and
// units traced.
func tracedService(w workload, seed int64) (*tracedPass, error) {
	tr := newTracer(time.Now())
	sr, err := runService(w.cfg, seed, w.budget, filepath.Join(buildDir, "state"), tr)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	tp := &tracedPass{
		metrics: serviceLayers(sr, spans), spans: spans,
		rate:  float64(sr.st.Iterations) / sr.out.fuzz.Seconds(),
		iters: sr.st.Iterations, accepted: sr.st.Accepted, cov: sr.st.Coverage.Count(),
		fails: sr.fails,
	}
	tp.det = map[string]any{
		"accepted":       sr.st.Accepted,
		"coverage_sites": sr.st.Coverage.Count(),
		"bug IDs":        bugSet(sr.st.BugIDs()),
	}
	return tp, nil
}

// fuzzLayers derives the per-layer metrics of a traced fuzz replay.
func fuzzLayers(mr *mirrorResult) map[string]float64 {
	ls := analyze(mr.spans)
	get := func(name string) *layerStat {
		if s := ls[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	m := make(map[string]float64)
	gen, mut := get("core.gen"), get("core.mutate")
	m["core.gen.calls"] = float64(gen.calls)
	m["core.gen.busy_s"] = seconds(gen.self)
	m["core.mutate.share"] = ratio(int64(mut.calls), int64(gen.calls+mut.calls))
	mini := get("core.minimize")
	m["core.minimize.calls"] = float64(mini.calls)
	m["core.minimize.busy_s"] = seconds(mini.busy)
	rec := get("kernel.recycle")
	m["kernel.recycle.calls"] = float64(rec.calls)
	m["kernel.recycle.busy_s"] = seconds(rec.busy)

	v := get("verifier")
	m["verifier.calls"] = float64(v.calls)
	m["verifier.busy_s"] = seconds(v.self)
	m["verifier.reject_share"] = ratio(int64(v.calls-v.worked), int64(v.calls))
	m["verifier.insn_processed"] = float64(v.work)
	m["verifier.ns_per_insn"] = ratio(v.selfWork, v.work)
	m["verifier.states_total"] = float64(mr.counts.statesTotal)
	m["verifier.states_peak"] = float64(mr.counts.statesPeak)
	m["verifier.timeouts"] = float64(mr.counts.timeouts)

	look, pre, ins := get("vcache.lookup"), get("vcache.prefix"), get("vcache.insert")
	m["vcache.lookup.calls"] = float64(look.calls)
	m["vcache.lookup.hit_rate"] = ratio(look.work, int64(look.calls))
	m["vcache.prefix.calls"] = float64(pre.calls)
	m["vcache.prefix.hit_rate"] = ratio(pre.work, int64(pre.calls))
	m["vcache.insert.calls"] = float64(ins.calls)
	var cacheBusy int64
	for name, s := range ls {
		if strings.HasPrefix(name, "vcache.") {
			cacheBusy += s.busy
		}
	}
	m["vcache.busy_s"] = seconds(cacheBusy)
	m["vcache.entries"] = float64(mr.entries)
	m["vcache.inserted_bytes"] = float64(mr.inBytes)

	san := get("sanitizer")
	m["sanitizer.calls"] = float64(san.calls)
	m["sanitizer.busy_s"] = seconds(san.busy)
	m["sanitizer.footprint"] = ratio(int64(mr.counts.outSlots), int64(mr.counts.origSlots))

	rt := get("runtime")
	m["runtime.runs"] = float64(rt.calls)
	m["runtime.busy_s"] = seconds(rt.busy)
	m["runtime.steps"] = float64(rt.work)
	m["runtime.ns_per_step"] = ratio(rt.busy, rt.work)
	m["runtime.fault_share"] = ratio(int64(mr.counts.runFaults), int64(rt.calls))

	or := get("oracle")
	m["oracle.replays"] = float64(or.calls)
	m["oracle.busy_s"] = seconds(or.busy)
	m["oracle.checks"] = float64(or.work)
	m["oracle.ns_per_check"] = ratio(or.busy, or.work)
	m["oracle.violations"] = float64(mr.counts.violations)

	tri := get("triage.gauntlet")
	m["triage.findings"] = float64(tri.work)
	m["triage.gauntlet_s"] = seconds(tri.busy)
	return m
}

// serviceLayers derives the per-layer metrics of a traced service run:
// the orchestrator's and the triage gauntlet's. The campaign's own layers
// run inside orchestrator.SpecRunner, which the trace times as one span
// per unit, so they report 0 here.
func serviceLayers(sr *serviceRun, spans []span) map[string]float64 {
	ls := analyze(spans)
	get := func(name string) *layerStat {
		if s := ls[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	m := make(map[string]float64)
	m["orchestrator.result.bytes_p50"] = float64(percentile(sortedCopy(sr.meter.resultBytes), 50))
	m["orchestrator.rpcs"] = float64(sr.fails.rpcs)
	m["orchestrator.rpc_fail_share"] = ratio(int64(sr.fails.rpcFails), int64(sr.fails.rpcs))
	m["orchestrator.refunds"] = float64(sr.fails.refunds)
	m["orchestrator.unit.busy_s"] = seconds(get("orchestrator.unit").busy)
	m["orchestrator.worker_idle_share"] = 1 - ratio(sr.unitNS, sr.wallNS)
	m["triage.findings"] = float64(sr.out.findings)
	m["triage.gauntlet_s"] = sr.out.triage.Seconds()
	return m
}

// latencyMetrics are the per-call latency percentiles. They are taken
// over the spans of every traced pass pooled, so a tail has enough
// samples beyond it; each tail comes with its percentile and the sample
// count.
func latencyMetrics(spans []span, m map[string]float64) {
	ls := analyze(spans)
	get := func(name string) *layerStat {
		if s := ls[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	withTail := func(prefix string, s *layerStat, scale float64) {
		sorted := sortedCopy(s.durs)
		t, pct := tail(sorted)
		m[prefix+"_p50"] = float64(percentile(sorted, 50)) / scale
		m[prefix+"_tail"] = float64(t) / scale
		m[prefix+"_tail.pct"] = pct
		m[prefix+"_tail.n"] = float64(len(sorted))
	}
	withTail("verifier.us", get("verifier"), 1e3)
	withTail("orchestrator.lease.ms", get("orchestrator.lease"), 1e6)
	withTail("orchestrator.result.ms", get("orchestrator.result"), 1e6)
	m["core.gen.us_p50"] = p50(get("core.gen")) / 1e3
	m["vcache.lookup.ns_p50"] = p50(get("vcache.lookup"))
	m["sanitizer.us_p50"] = p50(get("sanitizer")) / 1e3
	m["orchestrator.heartbeat.ms_p50"] = p50(get("orchestrator.heartbeat")) / 1e6
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func p50(s *layerStat) float64 { return float64(percentile(sortedCopy(s.durs), 50)) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianOf[T any](items []T, f func(T) float64) float64 {
	v := make([]float64, len(items))
	for i, it := range items {
		v[i] = f(it)
	}
	return median(v)
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
