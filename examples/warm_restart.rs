//! Warm restart end to end: snapshot a churned sharded oracle, restore it
//! instantly, and serve both over the wire.
//!
//! The demo builds an `f = 2` fault-tolerant 3-spanner of a 600-node
//! network across 4 shards, ages it with three permanent fault waves, then:
//!
//! 1. **captures** a [`Snapshot`] and restores it, comparing the restore
//!    time against the cold build and proving the restored oracle answers
//!    bit-identically;
//! 2. **serves** the restored oracle with `ftspan-server` on an ephemeral
//!    loopback port, runs real client traffic against it (including a
//!    `METRICS` scrape and a `SNAPSHOT` download — a snapshot taken *of a
//!    restored oracle, over the wire*), and shuts down gracefully.
//!
//! Run with `cargo run --release -p ftspan-examples --bin warm_restart`.

use std::time::Instant;

use ftspan::{sample_fault_set, FaultModel, SpannerParams};
use ftspan_graph::{generators, vid};
use ftspan_oracle::{
    ChurnConfig, OracleService, Query, ServiceConfig, ShardPlanOptions, ShardedOptions,
    ShardedOracle, Snapshot, SpannerOracle,
};
use ftspan_server::{BatchEntry, Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(4040);
    let n = 600;
    let graph = generators::connected_gnp(n, 14.0 / (n as f64 - 1.0), &mut rng);
    let params = SpannerParams::vertex(2, 2);
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 4,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };

    println!(
        "network: {} nodes, {} links; building {params} over 4 shards...",
        graph.vertex_count(),
        graph.edge_count()
    );
    let cold_start = Instant::now();
    let mut oracle = ShardedOracle::build(graph, params, options);
    let cold = cold_start.elapsed();
    println!(
        "cold build: {} spanner edges in {:.2}s",
        oracle.global().spanner().edge_count(),
        cold.as_secs_f64()
    );

    // Age the oracle: permanent damage, incrementally repaired. The
    // snapshot below carries the *repaired* spanner and the damage record,
    // not the pristine build.
    let churn = ChurnConfig::default();
    for _ in 0..3 {
        let wave = sample_fault_set(oracle.graph(), FaultModel::Vertex, 3, &[], &mut rng);
        let report = SpannerOracle::apply_wave(&mut oracle, &wave, &churn);
        println!(
            "wave: {} vertices failed, repair added {} edges (epoch {})",
            wave.len(),
            report.outcome.edges_added,
            oracle.epoch()
        );
    }

    // --- 1. Capture and restore. -------------------------------------
    let bytes = Snapshot::capture(&oracle);
    let restore_start = Instant::now();
    let restored: ShardedOracle = Snapshot::restore(&bytes).expect("snapshot restores");
    let restore = restore_start.elapsed();
    println!(
        "snapshot: {} bytes; restore {:.0}ms vs cold build {:.0}ms ({:.1}x faster)",
        bytes.len(),
        restore.as_secs_f64() * 1e3,
        cold.as_secs_f64() * 1e3,
        cold.as_secs_f64() / restore.as_secs_f64()
    );

    let check: Vec<Query> = (0..500)
        .map(|_| {
            let u = vid(rng.gen_range(0..n));
            let mut v = vid(rng.gen_range(0..n));
            while v == u {
                v = vid(rng.gen_range(0..n));
            }
            let faults = sample_fault_set(oracle.graph(), FaultModel::Vertex, 2, &[], &mut rng);
            Query::distance(u, v, faults)
        })
        .collect();
    let want = oracle.answer_batch(&check);
    let got = restored.answer_batch(&check);
    let identical = want
        .iter()
        .zip(&got)
        .all(|(w, g)| w.distance().map(f64::to_bits) == g.distance().map(f64::to_bits));
    assert!(identical, "restored oracle must answer bit-identically");
    println!(
        "replay: {} queries, restored answers bit-identical",
        check.len()
    );

    // --- 2. Serve the restored oracle over TCP. -----------------------
    let service = OracleService::new(restored, ServiceConfig::default());
    let server = Server::start(service, "127.0.0.1:0", ServerConfig::default())
        .expect("server starts on an ephemeral port");
    println!("serving on {}", server.local_addr());

    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let entries = client.batch(check.clone()).expect("batch served");
    let served = entries
        .iter()
        .zip(&want)
        .filter(|(entry, want)| match entry {
            BatchEntry::Answered(a) => {
                a.distance.map(f64::to_bits) == want.distance().map(f64::to_bits)
            }
            BatchEntry::Shed => false,
        })
        .count();
    println!(
        "wire: {}/{} batched answers match the pre-restart oracle bit-for-bit",
        served,
        entries.len()
    );

    let metrics = client.metrics().expect("metrics scrape");
    let queries_line = metrics
        .lines()
        .find(|l| l.starts_with("ftspan_queries_total"))
        .expect("pinned metric family present");
    println!("metrics: {queries_line}");

    // A snapshot of a restored oracle, fetched over the wire, restores
    // again — warm restarts chain.
    let wire_snapshot = client.snapshot().expect("snapshot download");
    let again: ShardedOracle = Snapshot::restore(&wire_snapshot).expect("wire snapshot restores");
    assert_eq!(again.epoch(), oracle.epoch());
    println!(
        "wire snapshot: {} bytes, restores to epoch {}",
        wire_snapshot.len(),
        again.epoch()
    );

    drop(client);
    let service = server.shutdown();
    let summary = service.metrics();
    println!(
        "shutdown: drained cleanly; served {} submissions ({} coalesced)",
        summary.submitted, summary.coalesced
    );
}
