package main

// metricDecl declares one printed metric. BENCHMARK.json at the root of
// the repository lists the same names, units and directions; a test keeps
// the two in step.
type metricDecl struct {
	name   string
	unit   string
	better string
	// moves names the end-to-end metric and the workload a per-layer
	// metric should move (README.md carries the same map).
	moves string
}

// endToEnd are the metrics an untraced run prints, the same names on
// every workload.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "iters_per_sec", unit: "iters/s", better: "higher"},
	{name: "triage_s", unit: "s", better: "lower"},
	{name: "coverage_sites", unit: "count", better: "higher"},
	{name: "bugs_found", unit: "count", better: "higher"},
	{name: "accept_rate", unit: "fraction", better: "higher"},
	{name: "allocs_per_iter", unit: "allocs", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer are the metrics a traced run prints. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDecl{
	{"core.gen.calls", "count", "higher", "iters_per_sec on fuzz-cached"},
	{"core.gen.busy_s", "s", "lower", "iters_per_sec on fuzz-cached"},
	{"core.gen.us_p50", "us", "lower", "iters_per_sec on fuzz-cached"},
	{"core.mutate.share", "fraction", "higher", "iters_per_sec on fuzz-cached"},
	{"core.minimize.calls", "count", "lower", "iters_per_sec on fuzz-default"},
	{"core.minimize.busy_s", "s", "lower", "iters_per_sec on fuzz-default"},

	{"kernel.recycle.calls", "count", "lower", "setup_s on every workload"},
	{"kernel.recycle.busy_s", "s", "lower", "setup_s on every workload"},

	{"verifier.calls", "count", "higher", "iters_per_sec on fuzz-default and fuzz-oracle"},
	{"verifier.busy_s", "s", "lower", "iters_per_sec on fuzz-default and fuzz-oracle"},
	{"verifier.us_p50", "us", "lower", "iters_per_sec on fuzz-default and fuzz-oracle"},
	{"verifier.us_tail", "us", "lower", "iters_per_sec on fuzz-default and fuzz-oracle"},
	{"verifier.us_tail.pct", "percentile", "higher", "(percentile of verifier.us_tail)"},
	{"verifier.us_tail.n", "count", "higher", "(samples behind verifier.us_tail)"},
	{"verifier.reject_share", "fraction", "lower", "accept_rate on every fuzz workload"},
	{"verifier.insn_processed", "count", "lower", "iters_per_sec on fuzz-default and fuzz-oracle"},
	{"verifier.ns_per_insn", "ns", "lower", "iters_per_sec on fuzz-default and fuzz-oracle"},
	{"verifier.states_total", "count", "lower", "iters_per_sec on fuzz-default and fuzz-oracle"},
	{"verifier.states_peak", "count", "lower", "peak_rss_mb on fuzz-default"},
	{"verifier.timeouts", "count", "lower", "iters_per_sec on fuzz-default"},

	{"vcache.lookup.calls", "count", "higher", "iters_per_sec on fuzz-cached"},
	{"vcache.lookup.hit_rate", "fraction", "higher", "iters_per_sec on fuzz-cached"},
	{"vcache.lookup.ns_p50", "ns", "lower", "iters_per_sec on fuzz-cached"},
	{"vcache.prefix.calls", "count", "higher", "iters_per_sec on fuzz-cached"},
	{"vcache.prefix.hit_rate", "fraction", "higher", "iters_per_sec on fuzz-cached"},
	{"vcache.insert.calls", "count", "lower", "iters_per_sec on fuzz-cached"},
	{"vcache.busy_s", "s", "lower", "iters_per_sec on fuzz-cached"},
	{"vcache.entries", "count", "lower", "peak_rss_mb on fuzz-cached"},
	{"vcache.inserted_bytes", "bytes", "lower", "peak_rss_mb on fuzz-cached"},

	{"sanitizer.calls", "count", "lower", "iters_per_sec on fuzz-default"},
	{"sanitizer.busy_s", "s", "lower", "iters_per_sec on fuzz-default"},
	{"sanitizer.us_p50", "us", "lower", "iters_per_sec on fuzz-default"},
	{"sanitizer.footprint", "ratio", "lower", "iters_per_sec on fuzz-default"},

	{"runtime.runs", "count", "higher", "iters_per_sec on fuzz-oracle and fuzz-default"},
	{"runtime.busy_s", "s", "lower", "iters_per_sec on fuzz-oracle and fuzz-default"},
	{"runtime.steps", "count", "higher", "iters_per_sec on fuzz-oracle and fuzz-default"},
	{"runtime.ns_per_step", "ns", "lower", "iters_per_sec on fuzz-oracle and fuzz-default"},
	{"runtime.fault_share", "fraction", "higher", "bugs_found on every fuzz workload"},

	{"oracle.replays", "count", "higher", "iters_per_sec on fuzz-oracle"},
	{"oracle.busy_s", "s", "lower", "iters_per_sec on fuzz-oracle"},
	{"oracle.checks", "count", "higher", "iters_per_sec on fuzz-oracle"},
	{"oracle.ns_per_check", "ns", "lower", "iters_per_sec on fuzz-oracle"},
	{"oracle.violations", "count", "higher", "bugs_found on fuzz-oracle"},

	{"triage.findings", "count", "higher", "triage_s on fuzz-default"},
	{"triage.gauntlet_s", "s", "lower", "triage_s on fuzz-default"},

	{"orchestrator.lease.ms_p50", "ms", "lower", "iters_per_sec and setup_s on service-loopback"},
	{"orchestrator.lease.ms_tail", "ms", "lower", "iters_per_sec and setup_s on service-loopback"},
	{"orchestrator.lease.ms_tail.pct", "percentile", "higher", "(percentile of orchestrator.lease.ms_tail)"},
	{"orchestrator.lease.ms_tail.n", "count", "higher", "(samples behind orchestrator.lease.ms_tail)"},
	{"orchestrator.heartbeat.ms_p50", "ms", "lower", "iters_per_sec on service-loopback"},
	{"orchestrator.result.ms_p50", "ms", "lower", "iters_per_sec on service-loopback"},
	{"orchestrator.result.ms_tail", "ms", "lower", "iters_per_sec on service-loopback"},
	{"orchestrator.result.ms_tail.pct", "percentile", "higher", "(percentile of orchestrator.result.ms_tail)"},
	{"orchestrator.result.ms_tail.n", "count", "higher", "(samples behind orchestrator.result.ms_tail)"},
	{"orchestrator.result.bytes_p50", "bytes", "lower", "iters_per_sec on service-loopback"},
	{"orchestrator.rpcs", "count", "lower", "iters_per_sec on service-loopback"},
	{"orchestrator.rpc_fail_share", "fraction", "lower", "iters_per_sec on service-loopback"},
	{"orchestrator.refunds", "count", "lower", "iters_per_sec on service-loopback"},
	{"orchestrator.unit.busy_s", "s", "lower", "iters_per_sec on service-loopback"},
	{"orchestrator.worker_idle_share", "fraction", "lower", "iters_per_sec on service-loopback"},

	{"fail_rate", "fraction", "lower", "(failed / attempted operations; 0 on every workload)"},
	{"trace.iters_per_sec", "iters/s", "higher", "(traced rate, beside trace.untraced_iters_per_sec)"},
	{"trace.untraced_iters_per_sec", "iters/s", "higher", "(untraced rate of the same campaign)"},
	{"trace.overhead", "fraction", "lower", "(1 - traced rate / untraced rate)"},
	{"trace.accept_rate", "fraction", "higher", "(traced replay, beside trace.campaign_accept_rate)"},
	{"trace.campaign_accept_rate", "fraction", "higher", "(the campaign the traced replay mirrors)"},
	{"trace.coverage_sites", "count", "higher", "(traced replay, beside trace.campaign_coverage_sites)"},
	{"trace.campaign_coverage_sites", "count", "higher", "(the campaign the traced replay mirrors)"},
	{"trace.spans", "count", "higher", "(spans written out)"},
}

// declared looks a metric up in both lists.
func declared(name string) (metricDecl, bool) {
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}
