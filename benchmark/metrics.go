package main

// The metric ledger: every number the benchmark prints is declared here
// once, with its unit, its clock and the direction that counts as better.
// BENCHMARK.json is a projection of this table (benchmark_test.go keeps the
// two in step), and README.md is its glossary.

// Clocks. A host metric is what the simulator costs on this machine: noisy,
// compared against a bound. A modelled metric is what the simulated Sunway
// would do: a pure function of seed and configuration that must repeat to
// the last digit.
const (
	clockHost     = "host"
	clockModelled = "modelled"
)

const (
	lower  = "lower"
	higher = "higher"
)

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before it counts as a regression: for the driver,
	// on the gated metrics, and for -compare on the host metrics (which
	// holds modelled metrics and failed_ops to exact equality instead).
	// Per-layer metrics have no bound.
	Bound float64
	// Gated end-to-end metrics are listed in BENCHMARK.json and printed on
	// the result line; the others are reported and compared by this
	// program only (README.md, "What the driver does not gate").
	Gated bool
}

// The bounds are sized for the driver's check, which compares runs taken on
// different seeds: three times the relative inter-quartile spread measured
// over twenty seeds, rounded up (README.md, "Bounds"). The same-seed spread
// recorded in baseline.json is well inside them. setup_s is a few short
// stages and gets the largest bound the manifest allows.
var endToEnd = []metricDef{
	{"host_mteps", "Medges/s", clockHost, higher, 0.12, true},
	{"op_ms_p50", "ms", clockHost, lower, 0.15, true},
	{"op_ms_p90", "ms", clockHost, lower, 0.15, false},
	{"validate_ms_p50", "ms", clockHost, lower, 0.15, true},
	{"run_s", "s", clockHost, lower, 0.15, true},
	{"setup_s", "s", clockHost, lower, 0.25, true},
	{"alloc_mb_per_op", "MB", clockHost, lower, 0.20, true},
	{"allocs_per_op", "count", clockHost, lower, 0.15, true},
	{"peak_rss_mb", "MB", clockHost, lower, 0.15, true},
	{"modelled_gteps", "GTEPS", clockModelled, higher, 0.16, true},
	{"net_bytes_per_edge", "B/edge", clockModelled, lower, 0.18, true},
	{"net_msgs_per_op", "count", clockModelled, lower, 0.15, true},
	{"max_connections", "count", clockModelled, lower, 0, false},
	{"failed_ops", "count", "", lower, 0, false},
}

// Per-layer metrics, named <module>.<metric>. Counts taken from
// Result.Levels / RunInfo / fabric counters are modelled and repeat exactly;
// times come from the traced pass and the probes.
var perLayer = []metricDef{
	{Name: "graph.kronecker_ns_per_edge", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "graph.csr_ns_per_edge", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "graph.csr_allocs", Unit: "count", Clock: clockHost, Better: lower},
	{Name: "graph.extract_local_ms", Unit: "ms", Clock: clockHost, Better: lower},

	{Name: "core.newrunner_ms", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "core.level_ms_topdown_p50", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "core.level_ms_bottomup_p50", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "core.level_floor_us", Unit: "us", Clock: clockHost, Better: lower},
	{Name: "core.td_ns_per_frontier_edge", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "core.bu_ns_per_unvisited_vertex", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "core.levels_per_op", Unit: "count", Clock: clockModelled, Better: lower},
	{Name: "core.bottomup_levels_per_op", Unit: "count", Clock: clockModelled, Better: lower},
	{Name: "core.processed_bytes_per_edge", Unit: "B/edge", Clock: clockModelled, Better: lower},
	{Name: "core.module_invocations_per_op", Unit: "count", Clock: clockModelled, Better: lower},
	{Name: "core.reference_bfs_ms", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "core.sim_slowdown_x", Unit: "x", Clock: clockHost, Better: lower},

	{Name: "comm.encode_ns_per_pair", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "comm.decode_ns_per_pair", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "comm.encoded_bytes_per_pair", Unit: "B", Clock: clockModelled, Better: lower},
	{Name: "comm.exchange_ns_per_pair", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "comm.exchange_allocs_per_pair", Unit: "count", Clock: clockHost, Better: lower},
	{Name: "comm.exchange_msgs", Unit: "count", Clock: clockModelled, Better: lower},
	{Name: "comm.inbox_ns_per_batch", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "comm.allreduce_us", Unit: "us", Clock: clockHost, Better: lower},
	{Name: "comm.allgather_us", Unit: "us", Clock: clockHost, Better: lower},
	{Name: "comm.retries", Unit: "count", Clock: clockModelled, Better: lower},
	{Name: "comm.est_share_pct", Unit: "%", Clock: clockHost, Better: lower},

	{Name: "fabric.bytes_intra_supernode", Unit: "B", Clock: clockModelled, Better: lower},
	{Name: "fabric.bytes_central", Unit: "B", Clock: clockModelled, Better: lower},
	{Name: "fabric.collective_bytes", Unit: "B", Clock: clockModelled, Better: lower},
	{Name: "fabric.avg_message_bytes", Unit: "B", Clock: clockModelled, Better: higher},

	{Name: "perf.modelled_level_us_topdown", Unit: "us", Clock: clockModelled, Better: lower},
	{Name: "perf.modelled_level_us_bottomup", Unit: "us", Clock: clockModelled, Better: lower},
	{Name: "perf.modelled_kernel_ms_mean", Unit: "ms", Clock: clockModelled, Better: lower},

	{Name: "graph500.validate_ns_per_edge", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "graph500.validate_seq_ns_per_edge", Unit: "ns", Clock: clockHost, Better: lower},
	{Name: "graph500.sample_roots_ms", Unit: "ms", Clock: clockHost, Better: lower},

	{Name: "algos.wcc_ms_per_round", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "algos.pagerank_ms_per_iter", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "algos.round_floor_ms", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "algos.wcc_rounds", Unit: "count", Clock: clockModelled, Better: lower},
	{Name: "algos.allocs_per_round", Unit: "count", Clock: clockHost, Better: lower},

	{Name: "ckpt.capture_overhead_pct", Unit: "%", Clock: clockHost, Better: lower},
	{Name: "ckpt.encode_ms", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "ckpt.read_ms", Unit: "ms", Clock: clockHost, Better: lower},
	{Name: "ckpt.bytes", Unit: "B", Clock: clockModelled, Better: lower},

	{Name: "obs.overhead_pct", Unit: "%", Clock: clockHost, Better: lower},
	{Name: "obs.trace_bytes_per_op", Unit: "B", Clock: clockModelled, Better: lower},
	{Name: "obs.dropped_events", Unit: "count", Clock: clockHost, Better: lower},
}

// values maps metric names to one run's measurements. A per-layer metric a
// workload does not exercise (algos.* on a BFS workload, ckpt.* on the
// kernels) reads 0.
type values map[string]float64

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
