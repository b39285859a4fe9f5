package main

// This file is the benchmark's contract in code: the workloads, the
// metrics and their bounds. BENCHMARK.json repeats it for the driver,
// and TestBenchmarkJSONMatchesCode keeps the two from drifting apart.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures. The driver makes 4 + 22 per
// workload runs inside 57 minutes; four workloads of 25 seconds fit
// with the set-ups, the checks and the builds, and leave a margin.
const runSeconds = 25

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from the untraced pass. "Request" is a
// served request on the serve_* workloads, one rule system's verdicts
// on analyze, and one recovery on wal_recover.
//
// Bounds: at least three times the widest spread (interquartile range
// over median) seen in sets of ten runs of the same code on the 2-core
// sandbox, each run with another seed, up to the contract's cap of
// 0.25. bench/README.md has the table.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p90_ms", "ms", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_req", "KiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the metrics of single layers (layer = package name),
// from the traced pass. A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricSpec{
	{"sqlmini.parse_us", "us", "lower", 0},

	{"engine.exec_user_us", "us", "lower", 0},
	{"engine.assert_us", "us", "lower", 0},
	{"engine.consider_us", "us", "lower", 0},
	{"engine.commit_self_us", "us", "lower", 0},
	{"engine.considered_per_req", "count", "lower", 0},
	{"engine.fired_per_req", "count", "lower", 0},
	{"engine.share", "ratio", "higher", 0},

	{"storage.fingerprint_us", "us", "lower", 0},
	{"storage.clone_us", "us", "lower", 0},
	{"storage.rows", "count", "lower", 0},
	{"storage.tables", "count", "lower", 0},
	{"storage.mutations_per_req", "count", "lower", 0},

	{"wal.journal_us", "us", "lower", 0},
	{"wal.observe_us", "us", "lower", 0},
	{"wal.fs_write_us", "us", "lower", 0},
	{"wal.fs_sync_us", "us", "lower", 0},
	{"wal.writes_per_req", "count", "lower", 0},
	{"wal.fsyncs_per_req", "count", "lower", 0},
	{"wal.bytes_per_req", "bytes", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.snapshot_bytes", "bytes", "lower", 0},
	{"wal.recover_records", "count", "lower", 0},
	{"wal.recover_ns_per_record", "ns", "lower", 0},

	{"staged.total_us", "us", "lower", 0},

	{"serve.new_ms", "ms", "lower", 0},
	{"serve.overhead_us", "us", "lower", 0},
	{"serve.queue_wait_us", "us", "lower", 0},
	{"serve.fs_busy_share", "ratio", "lower", 0},
	{"serve.shed_overload", "count", "lower", 0},
	{"serve.shed_deadline", "count", "lower", 0},
	{"serve.reopens", "count", "lower", 0},

	{"tenant.overhead_us", "us", "lower", 0},
	{"tenant.create_ms", "ms", "lower", 0},
	{"tenant.cache_hits", "count", "higher", 0},
	{"tenant.cache_misses", "count", "lower", 0},
	{"tenant.shed_quota", "count", "lower", 0},

	{"cluster.overhead_us", "us", "lower", 0},
	{"cluster.unacked", "count", "lower", 0},
	{"replica.converge_ms", "ms", "lower", 0},
	{"replica.lag_bytes_end", "bytes", "lower", 0},

	{"ruledef.parse_ms", "ms", "lower", 0},
	{"rules.compile_ms", "ms", "lower", 0},
	{"analysis.termination_ms", "ms", "lower", 0},
	{"analysis.confluence_ms", "ms", "lower", 0},
	{"analysis.observable_ms", "ms", "lower", 0},
	{"analysis.partial_ms", "ms", "lower", 0},
	{"analysis.shard_plan_ms", "ms", "lower", 0},
	{"analysis.lint_ms", "ms", "lower", 0},
	{"analysis.refine_extra_ms", "ms", "lower", 0},
	{"analysis.parallel_ratio", "ratio", "lower", 0},
	{"analysis.shard_plan_growth", "ratio", "lower", 0},
	{"analysis.pass_s", "s", "lower", 0},
	{"analysis.rules", "count", "lower", 0},

	{"client.samples", "count", "higher", 0},
	{"client.tail_pct", "%", "higher", 0},
	{"client.req_tail_ms", "ms", "lower", 0},
	{"client.req_p99_ms", "ms", "lower", 0},
	{"client.fail_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	// The traced pass reports raw times; host.slowdown says how fast the
	// host was while they were taken (hostspeed.go: 1 = full speed).
	{"host.slowdown", "ratio", "lower", 0},
}

// workloadSpec is one workload: its name is the contract later issues
// cite, why is the reason it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(seed int64, seconds float64, traced bool) (*result, error)
}

// The served workloads, with the op counts frozen for this benchmark:
// a round is 2 x perClient requests, sized on the 2-core sandbox to take
// about a second, so that a 25-second run samples every request some
// twenty times.
var (
	serveHot     = &servedSpec{name: "serve_hot", perClient: 2000}
	serveCold    = &servedSpec{name: "serve_cold", perClient: 80, checkpointEvery: 20, archiveRows: 10000}
	serveCascade = &servedSpec{name: "serve_cascade", cascade: true, perClient: 400}
	serveDurable = &servedSpec{name: "serve_durable", realFS: true, perClient: 1000, checkpointEvery: 125}
	serveTenants = &servedSpec{name: "serve_tenants", topo: topoTenants, tenants: 10, perClient: 3000}
	serveCluster = &servedSpec{name: "serve_cluster", topo: topoCluster, perClient: 500}

	servedSpecs = []*servedSpec{serveHot, serveCold, serveCascade, serveDurable, serveTenants, serveCluster}
)

// workloads are the ones BENCHMARK.json names, which the driver runs and
// gates on: as many as its time limit leaves room for at runSeconds
// each.
var workloads = []workloadSpec{
	{Name: serveHot.name, run: serveHot.run,
		Why: "small hot database: per-request fixed cost (queue hand-off, SQL parse, engine, WAL encode) is the largest share it will ever be; the control for every O(database) fix"},
	{Name: serveCold.name, run: serveCold.run,
		Why: "serve_hot's request stream plus 10 000 untouched rows: Engine.Commit's clone and the state-hash fingerprint dominate; ROADMAP item 2's workload"},
	{Name: serveCascade.name, run: serveCascade.run,
		Why: "24-deep rule chain with 8-way fan-out among 62 rules: the only workload where engine, compile and transition do most of the work"},
	{Name: "analyze", run: defaultAnalyze.run,
		Why: "time to the paper's verdicts over the shipped and generated rule sets; uses no storage, WAL or serve code, so it is the bypass workload for every serving change"},
}

// suiteOnly are run by the suite (and by name) with the same checks and
// metrics, but are not in BENCHMARK.json: the driver's time limit has no
// room for them. A change to their layers measures them by hand.
var suiteOnly = []workloadSpec{
	{Name: serveDurable.name, run: serveDurable.run,
		Why: "serve_hot's stream on the real filesystem with fsync at every commit: the only workload where device writes and fsyncs are real"},
	{Name: serveTenants.name, run: serveTenants.run,
		Why: "serve_hot's engine work through the tenant registry and quota fence on 10 tenants sharing one analysis cache; guards ROADMAP item 3"},
	{Name: serveCluster.name, run: serveCluster.run,
		Why: "leader and follower over loopback TCP with synchronous acks: the only networked path, where the request waits for replication"},
	{Name: "wal_recover", run: defaultRecover.run,
		Why: "wal.Recover of a 10 000-row snapshot plus a long committed log with aborts and an uncommitted tail: restart time; guards ROADMAP item 4"},
}

func allWorkloads() []workloadSpec {
	return append(append([]workloadSpec{}, workloads...), suiteOnly...)
}

func findWorkload(name string) *workloadSpec {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return &w
		}
	}
	return nil
}
