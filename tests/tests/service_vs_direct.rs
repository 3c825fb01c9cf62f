//! The service differential suite: every request answered through the
//! [`OracleService`] front-end — coalescing duplicates across interleaved
//! fault waves — must be **bit-identical** to a direct `answer_batch` call
//! on an identically-built backend, for both the single and the sharded
//! oracle. The front-end schedules and merges; it must never change an
//! answer.
//!
//! Unit-weight families make bit-identity meaningful: every correct
//! shortest-path computation produces the same exact `f64`, no matter which
//! cached tree or service round served it. A weighted family runs with an
//! ulp-scale tolerance (tied shortest paths can sum the same real length to
//! floats one ulp apart). Shortest paths need not be unique, so path
//! answers are compared as walks: same endpoints, every hop a live spanner
//! edge, total weight equal to the reported distance.

use ftspan::{sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_graph::{generators, vid, Graph};
use ftspan_integration_tests::rng;
use ftspan_oracle::{
    Answer, FaultOracle, OracleOptions, OracleService, Query, ServiceConfig, ShardPlanOptions,
    ShardedOptions, ShardedOracle, SpannerOracle,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Churn waves interleaved with traffic (the issue's floor is 20).
const WAVES: usize = 21;
/// Distinct queries drawn per burst; the burst samples them with
/// repetition, so coalescing always has duplicates to merge.
const DISTINCT_PER_BURST: usize = 40;
const BURST: usize = 110;

fn burst(graph: &Graph, f: usize, r: &mut StdRng) -> Vec<Query> {
    let n = graph.vertex_count();
    let fault_pool: Vec<FaultSet> = (0..4)
        .map(|_| sample_fault_set(graph, FaultModel::Vertex, f, &[], r))
        .collect();
    let distinct: Vec<Query> = (0..DISTINCT_PER_BURST)
        .map(|i| {
            let u = vid(r.gen_range(0..n));
            let mut v = vid(r.gen_range(0..n));
            while v == u {
                v = vid(r.gen_range(0..n));
            }
            let faults = fault_pool[i % fault_pool.len()].clone();
            if i % 3 == 0 {
                Query::path(u, v, faults)
            } else {
                Query::distance(u, v, faults)
            }
        })
        .collect();
    (0..BURST)
        .map(|_| distinct[r.gen_range(0..distinct.len())].clone())
        .collect()
}

/// Compares one service answer against the direct answer for the same
/// query: distances within `tolerance` (0.0 = bit-identical), path
/// presence identical, and any path a genuine spanner walk of the reported
/// length.
fn compare(
    label: &str,
    spanner: &Graph,
    query: &Query,
    want: &Answer,
    got: &Answer,
    tolerance: f64,
) {
    match (want.distance(), got.distance()) {
        (None, None) => {}
        (Some(a), Some(b)) if (a - b).abs() <= tolerance => {}
        other => panic!("{label}: distance diverged for {query:?}: {other:?}"),
    }
    assert_eq!(
        want.path().is_some(),
        got.path().is_some(),
        "{label}: path presence diverged for {query:?}"
    );
    if let Some(path) = got.path() {
        assert_eq!(path.first(), Some(&query.u), "{label}");
        assert_eq!(path.last(), Some(&query.v), "{label}");
        let mut walked = 0.0;
        for pair in path.windows(2) {
            let e = spanner
                .edge_between(pair[0], pair[1])
                .unwrap_or_else(|| panic!("{label}: non-spanner hop in {path:?}"));
            walked += spanner.weight(e);
            assert!(!query.faults.contains_vertex(pair[0]), "{label}");
        }
        let d = got.distance().expect("path answers carry a distance");
        assert!(
            (walked - d).abs() < 1e-9,
            "{label}: path length {walked} != distance {d}"
        );
    }
}

/// The generic differential runner: `direct` and the service's backend are
/// built identically; every round interleaves a pre-wave burst, a wave, and
/// a post-wave burst **in one drain**, so the wave barrier's ordering is
/// exercised, not just per-round equivalence.
fn service_vs_direct<O: SpannerOracle + 'static>(
    label: &str,
    mut direct: O,
    backend: O,
    config: ServiceConfig,
    f: usize,
    seed: u64,
    tolerance: f64,
) {
    let churn = config.churn.clone();
    let workers = config.workers;
    let service = OracleService::new(backend, config);
    let mut r = rng(seed);

    for round in 0..WAVES {
        // Walk validation needs the spanner of the epoch each burst was
        // answered against; the wave below replaces it.
        let pre_spanner = direct.spanner().clone();
        let pre = burst(direct.graph(), f, &mut r);
        let wave = sample_fault_set(direct.graph(), FaultModel::Vertex, 2, &[], &mut r);
        let post_source = {
            // Post-wave traffic is generated against the post-wave graph;
            // apply the wave to the direct backend first.
            let want_pre = direct.answer_batch(&pre);
            let report = direct.apply_wave(&wave, &churn);
            (want_pre, report)
        };
        let post = burst(direct.graph(), f, &mut r);
        let want_post = direct.answer_batch(&post);
        let (want_pre, direct_report) = post_source;

        // The service sees the same sequence through one queue: pre-burst,
        // wave barrier, post-burst, drained together.
        let pre_tickets: Vec<_> = pre.iter().cloned().map(|q| service.submit(q)).collect();
        let wave_ticket = service.submit_wave(wave);
        let post_tickets: Vec<_> = post.iter().cloned().map(|q| service.submit(q)).collect();
        let outcome = service.drain();
        assert_eq!(outcome.answered, pre.len() + post.len(), "{label} {round}");
        assert_eq!(outcome.waves, 1);

        let service_report = service.wave_report(wave_ticket).expect("wave applied");
        assert_eq!(
            service_report.outcome.edges_added, direct_report.outcome.edges_added,
            "{label} round {round}: wave repair diverged"
        );
        assert_eq!(
            service_report.outcome.broken_pairs, direct_report.outcome.broken_pairs,
            "{label} round {round}"
        );
        assert_eq!(
            service_report.rebuilt_lanes, direct_report.rebuilt_lanes,
            "{label} round {round}"
        );
        assert_eq!(service.oracle().epoch(), direct.epoch(), "{label} {round}");

        let post_spanner = direct.spanner();
        for (queries, tickets, want, spanner) in [
            (&pre, &pre_tickets, &want_pre, &pre_spanner),
            (&post, &post_tickets, &want_post, post_spanner),
        ] {
            for ((query, ticket), want) in queries.iter().zip(tickets.iter()).zip(want) {
                let got = service.answer(*ticket).expect("drained ticket answered");
                compare(
                    &format!("{label} round {round}"),
                    spanner,
                    query,
                    want,
                    &got,
                    tolerance,
                );
            }
        }
        service.recycle();
    }

    let metrics = service.metrics();
    assert!(
        metrics.coalesced > 0,
        "{label}: repeated queries must have been coalesced (got {metrics:?})"
    );
    assert_eq!(metrics.shed, 0, "{label}: no pending cap, nothing may shed");
    assert_eq!(
        metrics.submitted,
        (WAVES * 2 * BURST) as u64,
        "{label}: every burst accounted for"
    );
    if workers == 0 {
        assert_eq!(
            metrics.rounds,
            (WAVES * 3) as u64,
            "{label}: per wave one pre-wave round, the barrier and one post-wave round"
        );
    }
}

/// Worker counts every differential scenario runs at: inline (0) plus the
/// {1, 2, 8} concurrent-pool counts the CI matrix pins.
const WORKER_COUNTS: [usize; 4] = [0, 1, 2, 8];

#[test]
fn single_oracle_service_is_bit_identical_across_waves() {
    for workers in WORKER_COUNTS {
        let mut r = rng(9201);
        let graph = generators::connected_gnp(90, 0.08, &mut r);
        let params = SpannerParams::vertex(2, 2);
        let direct = FaultOracle::build(graph.clone(), params, OracleOptions::default());
        let backend = FaultOracle::build(graph, params, OracleOptions::default());
        let config = ServiceConfig::default().with_workers(workers);
        let label = format!("single-gnp90-w{workers}");
        service_vs_direct(&label, direct, backend, config, 2, 1, 0.0);
    }
}

#[test]
fn sharded_oracle_service_is_bit_identical_across_waves() {
    for workers in WORKER_COUNTS {
        let mut r = rng(9202);
        let graph = generators::connected_gnp(90, 0.08, &mut r);
        let params = SpannerParams::vertex(2, 2);
        let options = ShardedOptions {
            plan: ShardPlanOptions {
                shards: 4,
                ..ShardPlanOptions::default()
            },
            ..ShardedOptions::default()
        };
        let direct = ShardedOracle::build(graph.clone(), params, options.clone());
        let backend = ShardedOracle::build(graph, params, options);
        assert!(backend.shard_count() > 1, "a sharded backend needs shards");
        let config = ServiceConfig::default().with_workers(workers);
        let label = format!("sharded-gnp90-w{workers}");
        service_vs_direct(&label, direct, backend, config, 2, 2, 0.0);
    }
}

#[test]
fn weighted_backend_agrees_within_tolerance() {
    for workers in WORKER_COUNTS {
        let mut r = rng(9203);
        let base = {
            let mut g = generators::random_geometric(70, 0.2, &mut r);
            generators::overlay_random_spanning_tree(&mut g, &mut r);
            generators::with_random_weights(&g, 1.0, 8.0, &mut r)
        };
        let params = SpannerParams::vertex(2, 1);
        let direct = FaultOracle::build(base.clone(), params, OracleOptions::default());
        let backend = FaultOracle::build(base, params, OracleOptions::default());
        let config = ServiceConfig::default().with_workers(workers);
        let label = format!("weighted-geo70-w{workers}");
        service_vs_direct(&label, direct, backend, config, 1, 3, 1e-9);
    }
}
