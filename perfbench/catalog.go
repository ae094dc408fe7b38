package main

import "sort"

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step), but its
// format has no room for about: what an end-to-end metric measures, or
// which end-to-end metric on which workload a change in a per-layer
// metric should show up in, written down before any measurement.
type metricDef struct {
	name, unit, better string
	about              string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off on every workload. The first four are taken over the
// pooled middle segments of the measured phase (see endToEndValues).
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", "successful ops per wall second"},
	{"latency_p50_ms", "ms", "lower", "median per-op latency; the clock stops before the result check"},
	{"latency_p90_ms", "ms", "lower", "90th-percentile per-op latency; a failed op counts as slower than any"},
	{"cpu_ms_per_op", "ms", "lower", "process user+sys CPU per op"},
	{"peak_rss_mb", "MiB", "lower", "high-water RSS over the setups and the measured phase"},
	{"setup_s", "s", "lower", "median of the run's setups: build the system, then one warm-up pass"},
}

// perLayer are the traced run's metrics, named after the repo's
// modules. Per-op values are means over the traced pass's ops, per-rank
// values means over the ranks the rank-0 replay re-executed (one per
// job an op ran). A layer the workload never reaches reports 0.
var perLayer = []metricDef{
	{"spec.expand_us", "us", "lower", "serve latency_p50_ms (every read re-parses, re-hashes); cold latency_p50_ms"},
	{"result.encode_us", "us", "lower", "serve latency_p50_ms (every read re-encodes its result)"},
	{"engine.generate_ms", "ms", "lower", "cold throughput_rps and latency_p50_ms; flat in kernel; 0 on serve, where it runs inside the server"},
	{"engine.cache_hit_ratio", "ratio", "higher", "kernel throughput_rps (1 there); cold bypasses the cache"},
	{"pygen.funcs_per_op", "count", "lower", "cold throughput_rps and cpu_ms_per_op; kernel setup_s"},
	{"job.run_ms", "ms", "lower", "kernel throughput_rps, latency_p50_ms and latency_p90_ms; 0 on serve, where it runs inside the server"},
	{"job.index_ms", "ms", "lower", "kernel throughput_rps and latency_p50_ms; would move to setup_s if cached"},
	{"dynld.startup_ms", "ms", "lower", "kernel throughput_rps and cpu_ms_per_op"},
	{"dynld.relocs_per_op", "count", "lower", "kernel throughput_rps and cpu_ms_per_op"},
	{"dynld.lookups_per_op", "count", "lower", "kernel throughput_rps and cpu_ms_per_op"},
	{"dynld.scope_probes_per_op", "count", "lower", "kernel throughput_rps and cpu_ms_per_op"},
	{"pyvm.import_ms", "ms", "lower", "kernel latency_p50_ms and throughput_rps"},
	{"pyvm.visit_ms", "ms", "lower", "kernel latency_p50_ms and throughput_rps"},
	{"pyvm.calls_per_op", "count", "lower", "kernel latency_p50_ms and throughput_rps"},
	{"pyvm.plt_calls_per_op", "count", "lower", "kernel latency_p50_ms and throughput_rps"},
	{"memsim.accesses_per_rank", "count", "lower", "kernel cpu_ms_per_op"},
	{"memsim.bytes_per_rank", "B", "lower", "kernel cpu_ms_per_op"},
	{"castore.puts_per_op", "count", "lower", "serve latency_p90_ms and throughput_rps"},
	{"castore.hit_ratio", "ratio", "higher", "serve latency_p90_ms and throughput_rps"},
	{"castore.bytes_per_put", "B", "lower", "serve latency_p90_ms and throughput_rps"},
	{"serve.submit_fresh_ms", "ms", "lower", "serve latency_p90_ms (writes)"},
	{"serve.submit_dedup_ms", "ms", "lower", "serve latency_p50_ms (reads)"},
	{"serve.wait_ms", "ms", "lower", "serve latency_p90_ms (writes)"},
	{"serve.result_ms", "ms", "lower", "serve latency_p50_ms (reads)"},
	{"serve.polls_per_write", "count", "lower", "serve latency_p90_ms (writes)"},
	{"serve.dedup_ratio", "ratio", "higher", "serve latency_p50_ms (0.75 by construction)"},
	{"jobstore.put_us", "us", "lower", "serve latency_p90_ms and throughput_rps"},
	{"jobstore.claim_us", "us", "lower", "serve latency_p90_ms and throughput_rps"},
	{"jobstore.complete_us", "us", "lower", "serve latency_p90_ms and throughput_rps"},
	{"jobstore.list_ms", "ms", "lower", "serve throughput_rps (the steal loop's scan); 0 while the loop is pushed past the run"},
	{"jobstore.calls_per_write", "count", "lower", "serve latency_p90_ms and throughput_rps"},
	{"jobstore.wal_bytes_per_write", "B", "lower", "serve latency_p90_ms and throughput_rps"},
	{"go.alloc_kb_per_op", "KiB", "lower", "cpu_ms_per_op and peak_rss_mb on every workload"},
	{"go.gc_per_kop", "count", "lower", "cpu_ms_per_op on every workload"},
	{"go.gc_cpu_ms_per_op", "ms", "lower", "cpu_ms_per_op on every workload"},
	{"trace.overhead_pct", "%", "lower", "none: traced against untraced mean op latency"},
}

// metric is one reported value, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report turns computed values into the result line's metric map,
// failing if a declared metric was not computed or an undeclared one
// was.
func report(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var problems []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			problems = append(problems, "missing metric "+d.name)
			continue
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			problems = append(problems, "undeclared metric "+name)
		}
	}
	sort.Strings(problems)
	return out, problems
}
