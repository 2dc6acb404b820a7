package main

// A metricDef declares one metric the benchmark emits. BENCHMARK.json
// lists name, unit and direction (and the bound, for end-to-end
// metrics); target and mirrors stay here and in README.md because the
// contract fixes BENCHMARK.json's keys.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before the change counts as a regression.
	bound float64
	// target is the end-to-end metric a per-layer metric should move
	// and mirrors the workload it should move it on ("all" for any).
	target, mirrors string
}

// endToEnd are measured with tracing off, the same names on every
// workload. The bounds come from the quartile spreads seen across ten
// seeds on the two-core box that defined the benchmark: three times
// the widest for the allocation metrics, the contract's ceiling for
// the timings. See README.md, "Steadiness".
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "units_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "mallocs_per_unit", unit: "count", better: "lower", bound: 0.12},
	{name: "alloc_kb_per_unit", unit: "KB", better: "lower", bound: 0.12},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

func layer(name, unit, better, target, mirrors string) metricDef {
	return metricDef{name: name, unit: unit, better: better, target: target, mirrors: mirrors}
}

// perLayer are produced by the traced child only. A span that a
// workload never enters, and a count nothing emitted, read 0.
var perLayer = []metricDef{
	// Instrument 1: exact op counts from a counting telemetry.Sink.
	layer("netem.enqueued", "count", "lower", "wall_s", "all"),
	layer("netem.delivered", "count", "higher", "wall_s", "all"),
	layer("netem.dropped", "count", "lower", "wall_s", "arena-64"),
	layer("netem.deliver_ratio", "ratio", "higher", "wall_s", "arena-64"),
	layer("steering.decisions", "count", "lower", "wall_s", "table1-web"),
	layer("steering.urllc_frac", "ratio", "higher", "wall_s", "table1-web"),
	layer("transport.sends", "count", "lower", "wall_s", "fig1a-bulk"),
	layer("transport.acks", "count", "lower", "wall_s", "fig1a-bulk"),
	layer("transport.retransmits", "count", "lower", "wall_s", "arena-64"),
	layer("transport.rtos", "count", "lower", "wall_s", "arena-64"),
	layer("transport.retx_ratio", "ratio", "lower", "wall_s", "arena-64"),
	layer("cc.cwnd_updates", "count", "lower", "wall_s", "arena-64"),
	layer("app.completions", "count", "higher", "units_per_s", "fleet-video"),
	layer("netem.wall_ns_per_delivered", "ns", "lower", "wall_s", "all"),
	layer("netem.mallocs_per_kdelivered", "count", "lower", "mallocs_per_unit", "all"),
	layer("trace.overhead_frac", "ratio", "lower", "wall_s", "all"),

	// Instrument 2a: spans around the public calls a workload makes,
	// mean wall per entry.
	layer("core.call_s.cubic", "s", "lower", "wall_s", "fig1a-bulk"),
	layer("core.call_s.bbr", "s", "lower", "wall_s", "fig1a-bulk"),
	layer("core.call_s.vegas", "s", "lower", "wall_s", "fig1a-bulk"),
	layer("core.call_s.vivace", "s", "lower", "wall_s", "fig1a-bulk"),
	layer("core.call_s.embb-only", "s", "lower", "wall_s", "table1-web"),
	layer("core.call_s.dchannel", "s", "lower", "wall_s", "table1-web"),
	layer("core.call_s.dchannel-priority", "s", "lower", "wall_s", "table1-web"),
	layer("core.call_ms.video", "ms", "lower", "units_per_s", "fleet-video"),
	layer("sweep.call_s", "s", "lower", "wall_s", "table1-web"),
	layer("arena.call_s", "s", "lower", "wall_s", "arena-64"),
	layer("fleet.call_s", "s", "lower", "wall_s", "fleet-video"),
	layer("spec.parse_us", "us", "lower", "setup_s", "all"),
	layer("report.render_ms", "ms", "lower", "wall_s", "fleet-video"),
	layer("sweep.cached_us_per_cell", "us", "lower", "wall_s", "table1-web"),

	// Instrument 2b: the bench-assembled bulk flow with timing
	// decorators around cc.Algorithm and steering.Policy.
	layer("sim.steps", "count", "lower", "wall_s", "fig1a-bulk"),
	layer("sim.step_s", "s", "lower", "wall_s", "fig1a-bulk"),
	layer("cc.calls", "count", "lower", "wall_s", "fig1a-bulk"),
	layer("cc.busy_s", "s", "lower", "wall_s", "fig1a-bulk"),
	layer("steering.calls", "count", "lower", "wall_s", "fig1a-bulk"),
	layer("steering.busy_s", "s", "lower", "wall_s", "fig1a-bulk"),
	layer("datapath.self_s", "s", "lower", "wall_s", "fig1a-bulk"),

	// Instrument 2c: direct drives of leaf layers with fixed seeded
	// scripts, each mirroring the regime of one workload.
	layer("sim.ns_per_event.p16", "ns", "lower", "wall_s", "fig1a-bulk"),
	layer("sim.ns_per_event.p512", "ns", "lower", "wall_s", "arena-64"),
	layer("sim.newloop_us", "us", "lower", "units_per_s", "fleet-video"),
	layer("channel.newgroup_us", "us", "lower", "units_per_s", "fleet-video"),
	layer("netem.ns_per_pkt", "ns", "lower", "wall_s", "fig1a-bulk"),
	layer("steering.ns_per_pick.dchannel", "ns", "lower", "wall_s", "table1-web"),
	layer("steering.ns_per_pick.priority", "ns", "lower", "wall_s", "table1-web"),
	layer("cc.ns_per_ack.cubic", "ns", "lower", "wall_s", "table1-web"),
	layer("cc.ns_per_ack.bbr", "ns", "lower", "wall_s", "arena-64"),
	layer("cc.ns_per_ack.vegas", "ns", "lower", "wall_s", "arena-64"),
	layer("cc.ns_per_ack.vivace", "ns", "lower", "wall_s", "fig1a-bulk"),
	layer("cc.ns_per_ack.copa", "ns", "lower", "wall_s", "arena-64"),
	layer("cc.ns_per_ack.reno", "ns", "lower", "wall_s", "arena-64"),
	layer("transport.ns_per_pkt.w32", "ns", "lower", "wall_s", "table1-web"),
	layer("transport.ns_per_pkt.w2048", "ns", "lower", "wall_s", "fig1a-bulk"),
	layer("trace.gen_ms", "ms", "lower", "wall_s", "table1-web"),
	layer("app.web.corpus_ms", "ms", "lower", "wall_s", "table1-web"),
	layer("sketch.ns_per_observe", "ns", "lower", "units_per_s", "fleet-video"),
	layer("sketch.us_per_merge", "us", "lower", "units_per_s", "fleet-video"),
	layer("metrics.ns_per_add", "ns", "lower", "units_per_s", "fleet-video"),
	layer("pool.us_per_job", "us", "lower", "units_per_s", "fleet-video"),

	// Instrument 3: leaf CPU samples of the real workload bucketed by
	// package, and the runtime's own accounts.
	layer("sim.self_frac", "ratio", "lower", "wall_s", "fleet-video"),
	layer("netem.self_frac", "ratio", "lower", "wall_s", "table1-web"),
	layer("channel.self_frac", "ratio", "lower", "wall_s", "fleet-video"),
	layer("steering.self_frac", "ratio", "lower", "wall_s", "table1-web"),
	layer("transport.self_frac", "ratio", "lower", "wall_s", "fig1a-bulk"),
	layer("cc.self_frac", "ratio", "lower", "wall_s", "arena-64"),
	layer("app.self_frac", "ratio", "lower", "wall_s", "fleet-video"),
	layer("trace.self_frac", "ratio", "lower", "wall_s", "fleet-video"),
	layer("sketch.self_frac", "ratio", "lower", "wall_s", "fleet-video"),
	layer("metrics.self_frac", "ratio", "lower", "wall_s", "fleet-video"),
	layer("harness.self_frac", "ratio", "lower", "wall_s", "fleet-video"),
	layer("runtime.self_frac", "ratio", "lower", "wall_s", "all"),
	layer("other.self_frac", "ratio", "lower", "wall_s", "all"),
	layer("runtime.gc_cpu_s", "s", "lower", "wall_s", "all"),
	layer("runtime.cpu_s", "s", "lower", "wall_s", "all"),
	layer("runtime.num_gc", "count", "lower", "mallocs_per_unit", "all"),
	layer("runtime.heap_sys_mb", "MB", "lower", "alloc_kb_per_unit", "all"),
	layer("runtime.max_rss_mb", "MB", "lower", "alloc_kb_per_unit", "all"),
}

// profileBuckets are the self_frac metrics in report order; the
// bucketer returns one of these names (without the suffix).
var profileBuckets = []string{"sim", "netem", "channel", "steering", "transport", "cc", "app",
	"trace", "sketch", "metrics", "harness", "runtime", "other"}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
