package main

// metricSpec describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (TestSpecMatchesBenchmarkJSON).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. The pass times are taken at the 5th percentile: on a shared
// host that is the cost of a pass the neighbours left alone, and it repeats
// from run to run where the median does not. The median, the tail and the
// allocation per pass are reported beside them but not gated; README.md
// gives the measurements.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"pass_ms_p5", "ms", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
}

// perLayer are the traced run's metrics, one group per module. Times are
// medians of per-pass self times over the traced passes.
var perLayer = []metricSpec{
	{"workloads.build_ms", "ms", "lower", 0},
	{"workloads.programs", "count", "lower", 0},
	{"vm.ms", "ms", "lower", 0},
	{"vm.instrs", "count", "lower", 0},
	{"vm.ns_per_instr", "ns", "lower", 0},
	{"tracestream.record_ms", "ms", "lower", 0},
	{"tracestream.record_mb", "MB", "lower", 0},
	{"tracestream.decode_ns_per_event", "ns", "lower", 0},
	{"dynopt.ms", "ms", "lower", 0},
	{"dynopt.events", "count", "lower", 0},
	{"dynopt.ns_per_event", "ns", "lower", 0},
	{"core.ms", "ms", "lower", 0},
	{"core.net.ns_per_event", "ns", "lower", 0},
	{"core.lei.ns_per_event", "ns", "lower", 0},
	{"core.netcomb.ns_per_event", "ns", "lower", 0},
	{"core.leicomb.ns_per_event", "ns", "lower", 0},
	{"core.adaptive.ns_per_event", "ns", "lower", 0},
	{"core.regions", "count", "lower", 0},
	{"metrics.ms", "ms", "lower", 0},
	{"metrics.us_per_job", "us", "lower", 0},
	{"sweep.engine_ms", "ms", "lower", 0},
	{"sweep.memo_hits", "count", "higher", 0},
	{"sweep.memo_misses", "count", "lower", 0},
	{"sweep.memo_fallbacks", "count", "lower", 0},
	{"sweep.memo_hit_ratio", "ratio", "higher", 0},
	{"sweep.memo_resident_mb", "MB", "lower", 0},
	{"sweepnet.overhead_ms", "ms", "lower", 0},
	{"sweepnet.bytes_out", "bytes", "lower", 0},
	{"sweepnet.bytes_in", "bytes", "lower", 0},
}

// exactCounts are the per-layer counts that must repeat exactly across the
// traced passes of a run and across runs with the same seed. The wire byte
// counts are not among them: heartbeats and range batching depend on
// timing.
var exactCounts = []string{
	"workloads.programs",
	"vm.instrs",
	"dynopt.events",
	"core.regions",
	"tracestream.record_mb",
	"sweep.memo_hits",
	"sweep.memo_misses",
	"sweep.memo_fallbacks",
}

// coreMetric names each selector's core.<name>.ns_per_event metric.
var coreMetric = map[string]string{
	"net":      "core.net.ns_per_event",
	"lei":      "core.lei.ns_per_event",
	"net+comb": "core.netcomb.ns_per_event",
	"lei+comb": "core.leicomb.ns_per_event",
	"adaptive": "core.adaptive.ns_per_event",
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unitOf returns the unit of a named metric from either table.
func unitOf(name string) string {
	for _, tab := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
