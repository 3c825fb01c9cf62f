//! A sharded fault-tolerant distance service behind the [`OracleService`](ftspan_oracle::OracleService)
//! front-end.
//!
//! Builds an `f = 2` fault-tolerant 3-spanner of a 990-node grid network,
//! partitions it into 6 shards with the exponential-shift cluster plan, and
//! serves locality-biased traffic through the *same generic driver* the
//! single-oracle demo uses (`examples/src/lib.rs`) — the backend is just a
//! `ShardedOracle` this time. A fault wave rebuilds only the shards it
//! touches; untouched shards keep serving from warm caches, and every
//! burst is served in full. Every answered request is identical to what
//! the single global oracle would return — sharding is a scaling layer,
//! not an approximation.
//!
//! Run with `cargo run --release -p ftspan-examples --bin sharded_service`.

use std::time::Instant;

use ftspan::{sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_examples::{run_service_demo, DemoConfig};
use ftspan_graph::bfs::BfsScratch;
use ftspan_graph::{generators, vid};
use ftspan_oracle::{Query, ServiceConfig, ShardPlanOptions, ShardedOptions, ShardedOracle};
use rand::Rng;

fn main() {
    let graph = generators::grid(33, 30);
    let n = graph.vertex_count();
    let params = SpannerParams::vertex(2, 2);
    println!(
        "network: {} nodes, {} links; building {params} across 6 shards...",
        n,
        graph.edge_count()
    );
    let build_start = Instant::now();
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 6,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };
    let oracle = ShardedOracle::build(graph, params, options);
    println!(
        "spanner: {} edges; {} shards, largest region {} vertices, {} cut edges; built in {:.1}s",
        oracle.spanner().edge_count(),
        oracle.shard_count(),
        (0..oracle.shard_count())
            .map(|s| oracle.shard_members(s).len())
            .max()
            .unwrap_or(0),
        oracle.boundary().cut_edges().len(),
        build_start.elapsed().as_secs_f64()
    );

    let queries_per_wave = 2_500;
    let config = ServiceConfig::default();
    let demo = DemoConfig {
        waves: 4,
        wave_size: 4,
        seed: 2027,
    };

    let mut bfs = BfsScratch::new();
    let metrics = run_service_demo(oracle, config, demo, move |oracle, rng| {
        // Locality-biased traffic: most queries stay near their source,
        // with a fresh fault-set pool per burst.
        let fault_pool: Vec<FaultSet> = (0..8)
            .map(|_| sample_fault_set(oracle.graph(), FaultModel::Vertex, 2, &[], rng))
            .collect();
        (0..queries_per_wave)
            .map(|i| {
                let u = vid(rng.gen_range(0..n));
                let near = bfs.hop_distances_within(oracle.graph(), u, 5);
                let candidates: Vec<usize> = near
                    .iter()
                    .enumerate()
                    .filter(|(j, d)| d.is_some() && *j != u.index())
                    .map(|(j, _)| j)
                    .collect();
                let v = if candidates.is_empty() {
                    vid((u.index() + 1) % n)
                } else {
                    vid(candidates[rng.gen_range(0..candidates.len())])
                };
                let faults = fault_pool[i % fault_pool.len()].clone();
                if i % 5 == 0 {
                    Query::path(u, v, faults)
                } else {
                    Query::distance(u, v, faults)
                }
            })
            .collect()
    });

    let split = metrics
        .locality
        .expect("sharded backends report a locality split");
    assert!(
        split.local + split.stitched > 0,
        "some traffic must be served from shard state"
    );
    assert_eq!(metrics.shed, 0, "no pending cap, so nothing is shed");
}
