//! A fault-tolerant distance service under rolling fault waves, behind the
//! [`OracleService`](ftspan_oracle::OracleService) front-end.
//!
//! Builds an `f = 2` fault-tolerant 3-spanner of a 1 000-node network and
//! serves five bursts of 2 000 mixed distance/path requests while waves of
//! vertices fail permanently between bursts. Everything goes through the
//! service's one lifecycle API — submit, drain, wave, snapshot: requests
//! are admitted at most 512 per round, exact duplicates (hot sources ×
//! hot targets over a small pool of transient fault sets — bursty traffic
//! repeats itself) are coalesced into one backend query each, and waves
//! are FIFO barriers handled by the same loop. The run prints throughput,
//! the coalesced/shed counts, the tree-cache hit rate, and the maximum
//! stretch actually observed against exact distances in the surviving
//! network.
//!
//! The sharded variant of this demo (`sharded_service`) runs the *same
//! driver* over a `ShardedOracle` — the whole loop is written once against
//! the `SpannerOracle` trait (see `examples/src/lib.rs`).
//!
//! Run with `cargo run --release -p ftspan-examples --bin oracle_service`.

use std::time::Instant;

use ftspan::{sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_examples::{run_service_demo, DemoConfig};
use ftspan_graph::{generators, vid};
use ftspan_oracle::{FaultOracle, OracleOptions, Query, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2020);
    let n = 1_000;
    let graph = generators::connected_gnp(n, 16.0 / (n as f64 - 1.0), &mut rng);
    let params = SpannerParams::vertex(2, 2);
    println!(
        "network: {} nodes, {} links; building {params}...",
        graph.vertex_count(),
        graph.edge_count()
    );
    let build_start = Instant::now();
    let oracle = FaultOracle::build(graph, params, OracleOptions::default());
    println!(
        "spanner: {} edges ({:.1}% of the network) in {:.1}s",
        oracle.spanner().edge_count(),
        100.0 * oracle.spanner().edge_count() as f64 / oracle.graph().edge_count() as f64,
        build_start.elapsed().as_secs_f64()
    );

    let queries_per_wave = 2_000;
    let config = ServiceConfig::default();
    let demo = DemoConfig {
        waves: 5,
        wave_size: 6,
        seed: 2021,
    };

    let metrics = run_service_demo(oracle, config, demo, move |oracle, rng| {
        // Bursty traffic: hot sources and hot targets over a small pool of
        // transient fault sets, so exact repeats occur and coalescing has
        // real duplicates to merge.
        let fault_pool: Vec<FaultSet> = (0..8)
            .map(|_| sample_fault_set(oracle.graph(), FaultModel::Vertex, 2, &[], rng))
            .collect();
        let hot_sources: Vec<usize> = (0..24).map(|_| rng.gen_range(0..n)).collect();
        let hot_targets: Vec<usize> = (0..32).map(|_| rng.gen_range(0..n)).collect();
        (0..queries_per_wave)
            .map(|i| {
                let u = vid(hot_sources[rng.gen_range(0..hot_sources.len())]);
                let mut v = if i % 2 == 0 {
                    vid(hot_targets[rng.gen_range(0..hot_targets.len())])
                } else {
                    vid(rng.gen_range(0..n))
                };
                while v == u {
                    v = vid(rng.gen_range(0..n));
                }
                let faults = fault_pool[i % fault_pool.len()].clone();
                if i % 4 == 0 {
                    Query::path(u, v, faults)
                } else {
                    Query::distance(u, v, faults)
                }
            })
            .collect()
    });

    assert!(
        metrics.coalesced > 0,
        "hot-pool traffic must contain duplicates for the front-end to merge"
    );
    assert_eq!(
        metrics.shed, 0,
        "the pending queue stays under its max_pending cap, nothing sheds"
    );
}
