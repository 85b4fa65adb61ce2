package main

// metricDef names one metric, its unit and which direction is better.
// The benchmark's tests check BENCHMARK.json against these lists.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports. Each applies to
// every workload; METRICS.md defines them per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"mrefs_per_s", "Mref/s", "higher"},
	{"cold_ms_p50", "ms", "lower"},
}

// perLayer are the metrics every traced run reports. A layer the
// workload's own calls never reach reports 0.
func perLayer() []metricDef {
	var defs []metricDef
	for _, s := range frontEndStages {
		defs = append(defs, metricDef{s + "_us", "us", "lower"})
	}
	for _, v := range variants {
		defs = append(defs,
			metricDef{"sim.run_ms." + v.name, "ms", "lower"},
			metricDef{"sim.ns_per_ref." + v.name, "ns", "lower"},
			metricDef{"sim.scalar_ms." + v.name, "ms", "lower"},
			metricDef{"memsys.build_ms." + v.name, "ms", "lower"})
	}
	return append(defs,
		metricDef{"directory.check_ms", "ms", "lower"},
		metricDef{"tardis.check_ms", "ms", "lower"},
		metricDef{"sim.refs", "count", "lower"},
		metricDef{"sim.cycles", "count", "lower"},
		metricDef{"sim.misses", "count", "lower"},
		metricDef{"sim.coherence_words", "count", "lower"},
		metricDef{"sim.epochs", "count", "lower"},
		metricDef{"sim.stream_loops", "count", "higher"},
		metricDef{"sim.stream_fallbacks", "count", "lower"},
		metricDef{"sim.stream_coverage", "ratio", "higher"},
		metricDef{"core.allocs_per_pass", "count", "lower"},
		metricDef{"core.alloc_mb_per_pass", "MiB", "lower"},
		metricDef{"core.encode_us", "us", "lower"},
		metricDef{"svc.jobs_per_s", "1/s", "higher"},
		metricDef{"svc.cold_ms_p90", "ms", "lower"},
		metricDef{"svc.hit_ms_p50", "ms", "lower"},
		metricDef{"svc.hit_ms_p90", "ms", "lower"},
		metricDef{"svc.peer_ms_p50", "ms", "lower"},
		metricDef{"svc.queue_ms_p50", "ms", "lower"},
		metricDef{"svc.server_ms_p50", "ms", "lower"},
		metricDef{"svc.compile_ms_mean", "ms", "lower"},
		metricDef{"svc.run_ms_mean", "ms", "lower"},
		metricDef{"svc.http_ms_p50", "ms", "lower"},
		metricDef{"svc.result_hit_ratio", "ratio", "higher"},
		metricDef{"svc.compile_hit_ratio", "ratio", "higher"},
		metricDef{"svc.peer_hit_ratio", "ratio", "higher"},
		metricDef{"svc.peer_fetch_ms_p50", "ms", "lower"},
		metricDef{"trace.mrefs_per_s", "Mref/s", "higher"},
		metricDef{"trace.cold_ms_p50", "ms", "lower"},
	)
}

// zeroPerLayer returns every per-layer metric set to 0, for a traced
// workload to fill in the layers its calls reach.
func zeroPerLayer() metrics {
	m := metrics{}
	for _, d := range perLayer() {
		m.set(d.name, 0, d.unit)
	}
	return m
}
