//! The metric catalogue: names, units, directions and regression bounds.
//! `BENCHMARK.json` declares the same lists; `tests/quick.rs` pins the two
//! against each other.

use crate::lifecycle::Sample;

#[derive(Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// The metric's value in one lifecycle's sample.
    pub get: fn(&Sample) -> f64,
    /// For the timings: the layer metric that carries the traced
    /// lifecycles' median, which the tracing overhead is computed from.
    pub traced: Option<&'static str>,
}

/// The timing bounds are what this box can repeat, not what one would
/// like to gate: five ten-run sweeps of identical code put the
/// interquartile spread of the timing metrics at 2–13 % of the median in
/// the quietest sweep and up to 16 % in the busiest (README, *Run-to-run
/// evidence*), and a bound under about three times the spread rejects
/// unchanged code.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        get: |s| s.setup_s,
        traced: Some("bench.traced_setup_s"),
    },
    EndToEnd {
        name: "direct_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        get: |s| s.direct_qps,
        traced: Some("bench.traced_direct_qps"),
    },
    EndToEnd {
        name: "wire_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        get: |s| s.wire_qps,
        traced: Some("bench.traced_wire_qps"),
    },
    EndToEnd {
        name: "wave_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        get: |s| s.wave_ms,
        traced: Some("bench.traced_wave_ms"),
    },
    EndToEnd {
        name: "restore_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        get: |s| s.restore_s,
        traced: Some("bench.traced_restore_s"),
    },
    EndToEnd {
        name: "bytes_per_edge",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.01,
        get: |s| s.bytes_per_edge,
        traced: None,
    },
    EndToEnd {
        name: "spanner_edges",
        unit: "count",
        higher_is_better: false,
        bound: 0.001,
        get: |s| s.spanner_edges,
        traced: None,
    },
];

/// `(name, unit, higher is better)` of every layer metric the traced run
/// prints, grouped by crate.
pub const PER_LAYER: [(&str, &str, bool); 58] = [
    ("graph.dijkstra_tree_us", "us", false),
    ("graph.bfs_hop_us", "us", false),
    ("graph.g_bytes", "bytes", false),
    ("graph.h_bytes", "bytes", false),
    ("graph.fnv_ns_per_byte", "ns", false),
    ("core.greedy_build_s", "s", false),
    ("core.greedy_par_build_s", "s", false),
    ("core.lbc_calls", "count", false),
    ("core.bfs_runs", "count", false),
    ("core.lbc_decide_us", "us", false),
    ("core.verify_ms", "ms", false),
    ("core.respan_candidates", "count", false),
    ("distributed.plan_s", "s", false),
    ("distributed.local_build_s", "s", false),
    ("distributed.congest_rounds", "count", false),
    ("oracle.wrap_s", "s", false),
    ("oracle.hit_ns", "ns", false),
    ("oracle.miss_us", "us", false),
    ("oracle.cache_hit_rate", "ratio", true),
    ("oracle.trees_built", "count", false),
    ("oracle.batch_fanout_qps", "1/s", true),
    ("oracle.locality_rate", "ratio", true),
    ("oracle.fallbacks", "count", false),
    ("oracle.hier_qps", "1/s", true),
    ("oracle.hier_bytes_per_edge", "bytes", false),
    ("oracle.wave_direct_ms", "ms", false),
    ("oracle.rebuilt_lanes", "count", false),
    ("oracle.service_qps", "1/s", true),
    ("oracle.service_workers_qps", "1/s", true),
    ("oracle.service_wave_ms", "ms", false),
    ("oracle.read_stall_ms", "ms", false),
    ("oracle.capture_ms", "ms", false),
    ("oracle.restore_ms", "ms", false),
    ("oracle.snapshot_bytes", "bytes", false),
    ("oracle.journal_append_us", "us", false),
    ("oracle.replay_ms", "ms", false),
    ("server.encode_req_ns", "ns", false),
    ("server.decode_req_ns", "ns", false),
    ("server.encode_reply_ns", "ns", false),
    ("server.decode_reply_ns", "ns", false),
    ("server.frame_io_ns", "ns", false),
    ("server.wire_bytes_per_query", "bytes", false),
    ("server.first_reply_ms", "ms", false),
    ("server.rtt_floor_us", "us", false),
    ("server.rtt_p50_us", "us", false),
    ("server.rtt_p99_us", "us", false),
    ("server.snapshot_pull_s", "s", false),
    ("server.replica_ready_s", "s", false),
    ("server.wire_tax", "ratio", false),
    ("bench.gen_s", "s", false),
    ("bench.wave_late_ms", "ms", false),
    ("bench.trace_overhead_pct", "%", false),
    // The same five timings as the gated metrics, from the traced
    // lifecycles: what the overhead figure compares.
    ("bench.traced_setup_s", "s", false),
    ("bench.traced_direct_qps", "1/s", true),
    ("bench.traced_wire_qps", "1/s", true),
    ("bench.traced_wave_ms", "ms", false),
    ("bench.traced_restore_s", "s", false),
    ("bench.lifecycle_s", "s", false),
];
