//! The sharded differential suite: on every graph family, every answer of
//! the [`ShardedOracle`] must equal the single global [`FaultOracle`]'s
//! answer **exactly** — same `Option<f64>` distances bit for bit, same
//! reachability, and path answers that are genuine shortest walks of the
//! same length. The sharded oracle is a scaling layer, not an
//! approximation, and this suite is the contract that keeps it that way.
//!
//! Both oracles run the same deterministic spanner construction on the same
//! input, so they serve the same spanner; the comparison therefore isolates
//! the serving layer (regions, boundary stitching, certificates, fallback).

use ftspan::{sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_graph::{generators, vid, EdgeId, Graph};
use ftspan_integration_tests::rng;
use ftspan_oracle::{
    Answer, ChurnConfig, FaultOracle, HierarchicalOptions, HierarchicalOracle, OracleOptions,
    Query, ShardPlanOptions, ShardedOptions, ShardedOracle,
};
use rand::Rng;

/// Number of random fault sets exercised per family (the issue's floor is
/// 50).
const FAULT_SETS: usize = 55;
/// Query pairs compared under each fault set.
const PAIRS_PER_FAULT_SET: usize = 4;

fn sharded_options(shards: usize) -> ShardedOptions {
    ShardedOptions {
        plan: ShardPlanOptions {
            shards,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    }
}

/// Runs the differential comparison for one graph family.
///
/// `tolerance` is 0.0 for unit-weight families — distances are small
/// integers in `f64`, so answers must be **bit-identical** — and a 1e-9
/// absolute slack for weighted families, where two tied shortest paths can
/// accumulate the same real length to float sums an ulp apart, making exact
/// float equality between any two correct Dijkstra runs unsound to demand.
fn differential(
    name: &str,
    graph: Graph,
    params: SpannerParams,
    model: FaultModel,
    shards: usize,
    seed: u64,
    tolerance: f64,
) {
    let n = graph.vertex_count();
    let single = FaultOracle::build(graph.clone(), params, OracleOptions::default());
    let sharded = ShardedOracle::build(graph, params, sharded_options(shards));
    assert_eq!(
        single.spanner().edge_count(),
        sharded.spanner().edge_count(),
        "{name}: the deterministic construction must yield the same spanner"
    );

    let mut r = rng(seed);
    let f = single.params().f() as usize;
    for round in 0..FAULT_SETS {
        // |F| <= f, the regime the spanner is designed for; a few rounds use
        // smaller sets so the empty set and partial sets are covered too.
        let size = if round % 7 == 0 { round % (f + 1) } else { f };
        let faults = sample_fault_set(single.graph(), model, size, &[], &mut r);
        for _ in 0..PAIRS_PER_FAULT_SET {
            let u = vid(r.gen_range(0..n));
            let v = vid(r.gen_range(0..n));
            let query = if round % 3 == 0 {
                Query::path(u, v, faults.clone())
            } else {
                Query::distance(u, v, faults.clone())
            };
            let expected = single.answer(&query);
            let got = sharded.answer(&query);
            match (expected.distance, got.distance) {
                (None, None) => {}
                (Some(want), Some(have)) if (want - have).abs() <= tolerance => {}
                other => panic!("{name} round {round}: distance diverged for {query:?}: {other:?}"),
            }
            match (&expected.path, &got.path) {
                (None, None) => {}
                (Some(reference), Some(path)) => {
                    // Shortest paths need not be unique, so compare walks,
                    // not vertex sequences: same endpoints, same total
                    // weight, every hop a live spanner edge.
                    assert_eq!(path.first(), reference.first());
                    assert_eq!(path.last(), reference.last());
                    let mut walked = 0.0;
                    for pair in path.windows(2) {
                        let e = sharded
                            .spanner()
                            .edge_between(pair[0], pair[1])
                            .unwrap_or_else(|| {
                                panic!("{name} round {round}: non-spanner hop in {path:?}")
                            });
                        walked += sharded.spanner().weight(e);
                        assert!(!query.faults.contains_vertex(pair[0]));
                    }
                    let d = got.distance.expect("path answers carry a distance");
                    assert!(
                        (walked - d).abs() < 1e-9,
                        "{name} round {round}: path length {walked} != distance {d}"
                    );
                }
                other => panic!("{name} round {round}: path presence diverged: {other:?}"),
            }
        }
    }

    let snap = sharded.metrics().snapshot();
    assert_eq!(snap.queries as usize, FAULT_SETS * PAIRS_PER_FAULT_SET);
    assert!(
        snap.local + snap.stitched > 0,
        "{name}: some traffic must be served from shard state"
    );
}

/// Family 1: Erdős–Rényi, vertex faults.
#[test]
fn erdos_renyi_matches_single_oracle() {
    let mut r = rng(8101);
    let graph = generators::connected_gnp(120, 0.06, &mut r);
    differential(
        "gnp-120",
        graph,
        SpannerParams::vertex(2, 2),
        FaultModel::Vertex,
        4,
        1,
        0.0,
    );
}

/// Family 2: scale-free (Barabási–Albert), vertex faults. Hubs make the
/// boundary dense, which stresses the portal stitching.
#[test]
fn scale_free_matches_single_oracle() {
    let mut r = rng(8102);
    let graph = generators::barabasi_albert(120, 3, &mut r);
    differential(
        "ba-120",
        graph,
        SpannerParams::vertex(2, 1),
        FaultModel::Vertex,
        3,
        2,
        0.0,
    );
}

/// Family 3: small-world (Watts–Strogatz), edge faults — the fault ids go
/// through one translation (global graph → region spanner, by endpoints),
/// which this family pins down.
#[test]
fn small_world_edge_faults_match_single_oracle() {
    let mut r = rng(8103);
    let graph = generators::watts_strogatz(100, 4, 0.2, &mut r);
    differential(
        "ws-100",
        graph,
        SpannerParams::edge(2, 2),
        FaultModel::Edge,
        3,
        3,
        0.0,
    );
}

/// Regions resolve an edge fault straight to their spanner edge and drop it
/// when `H` has no such edge. A fault set made only of rejected edges (input
/// graph edges the spanner left out) therefore cannot change `H ∖ F`: on the
/// Watts–Strogatz EFT family every flat and hierarchical answer under such a
/// set must be bit-identical to the `F = ∅` answer and to the single
/// oracle's.
#[test]
fn rejected_edge_faults_leave_every_answer_unchanged() {
    // Family 3's generator with a wider ring lattice: at lattice degree 4
    // the `f = 2` greedy keeps every edge, so there would be nothing to
    // reject.
    let mut r = rng(8103);
    let graph = generators::watts_strogatz(100, 8, 0.2, &mut r);
    let n = graph.vertex_count();
    let params = SpannerParams::edge(2, 2);
    let hier_options = HierarchicalOptions {
        plan: ShardPlanOptions {
            shards: 3,
            ..ShardPlanOptions::default()
        },
        ..HierarchicalOptions::default()
    };
    let single = FaultOracle::build(graph.clone(), params, OracleOptions::default());
    let flat = ShardedOracle::build(graph.clone(), params, hier_options.flat());
    let hier = HierarchicalOracle::build(graph, params, hier_options);

    let rejected: Vec<EdgeId> = single
        .graph()
        .edges()
        .filter(|(_, e)| {
            single
                .spanner()
                .edge_between(e.source(), e.target())
                .is_none()
        })
        .map(|(id, _)| id)
        .collect();
    assert!(
        rejected.len() >= 2,
        "the family must reject edges, found {}",
        rejected.len()
    );

    let mut fault_sets: Vec<FaultSet> = (0..20)
        .map(|_| {
            let a = rejected[r.gen_range(0..rejected.len())];
            let b = rejected[r.gen_range(0..rejected.len())];
            FaultSet::edges([a, b])
        })
        .collect();
    fault_sets.push(FaultSet::edges(rejected.iter().copied()));
    let no_faults = FaultSet::empty(FaultModel::Edge);

    for (round, faults) in fault_sets.into_iter().enumerate() {
        for _ in 0..30 {
            let u = vid(r.gen_range(0..n));
            let v = vid(r.gen_range(0..n));
            let query = Query::path(u, v, faults.clone());
            let expected = single.answer(&query);
            let fault_free = single.distance(u, v, &no_faults);
            for (name, got, unfaulted) in [
                ("flat", flat.answer(&query), flat.distance(u, v, &no_faults)),
                ("hier", hier.answer(&query), hier.distance(u, v, &no_faults)),
            ] {
                assert_eq!(
                    got.distance.map(f64::to_bits),
                    unfaulted.map(f64::to_bits),
                    "{name} round {round}: rejected-edge faults changed {query:?}"
                );
                assert_eq!(
                    unfaulted.map(f64::to_bits),
                    fault_free.map(f64::to_bits),
                    "{name} round {round}: F = ∅ diverged from the single oracle"
                );
                assert_answer_matches(name, round, single.spanner(), &query, &expected, &got);
            }
        }
    }
    for snap in [flat.metrics().snapshot(), hier.metrics().snapshot()] {
        assert!(snap.local + snap.stitched > 0);
    }
}

/// Family 4: weighted random geometric — float distances agree to within an
/// ulp-scale tolerance (tied shortest paths can accumulate equal real
/// lengths to float sums one ulp apart; see `differential`).
#[test]
fn weighted_geometric_matches_single_oracle() {
    let mut r = rng(8104);
    let mut graph = generators::random_geometric(90, 0.18, &mut r);
    generators::overlay_random_spanning_tree(&mut graph, &mut r);
    let graph = generators::with_random_weights(&graph, 1.0, 8.0, &mut r);
    differential(
        "geo-90-weighted",
        graph,
        SpannerParams::vertex(2, 1),
        FaultModel::Vertex,
        3,
        4,
        1e-9,
    );
}

/// A 1-shard plan is the degenerate case: one region covering the graph, an
/// empty frontier, and therefore no certificate failures and no global
/// fallbacks — the "no sharding tax" configuration.
#[test]
fn one_shard_plan_is_equivalent_and_never_falls_back() {
    let mut r = rng(8105);
    let graph = generators::connected_gnp(80, 0.08, &mut r);
    let params = SpannerParams::vertex(2, 1);
    let single = FaultOracle::build(graph.clone(), params, OracleOptions::default());
    let sharded = ShardedOracle::build(graph, params, sharded_options(1));
    for round in 0..50u64 {
        let faults = sample_fault_set(single.graph(), FaultModel::Vertex, 1, &[], &mut r);
        let u = vid(r.gen_range(0..80));
        let v = vid(r.gen_range(0..80));
        assert_eq!(
            sharded.distance(u, v, &faults),
            single.distance(u, v, &faults),
            "round {round}"
        );
    }
    let snap = sharded.metrics().snapshot();
    assert_eq!(snap.global_fallbacks, 0);
    assert_eq!(snap.local, snap.queries);
}

/// Batched differential: the routed batch path must agree with the single
/// oracle's batch path query for query.
#[test]
fn batched_answers_match_single_oracle() {
    let mut r = rng(8106);
    let graph = generators::connected_gnp(100, 0.07, &mut r);
    let params = SpannerParams::vertex(2, 2);
    let single = FaultOracle::build(graph.clone(), params, OracleOptions::default());
    let sharded = ShardedOracle::build(graph, params, sharded_options(4));
    let queries: Vec<Query> = (0..400)
        .map(|i| {
            let faults = sample_fault_set(single.graph(), FaultModel::Vertex, 2, &[], &mut r);
            let u = vid(r.gen_range(0..100));
            let v = vid(r.gen_range(0..100));
            if i % 4 == 0 {
                Query::path(u, v, faults)
            } else {
                Query::distance(u, v, faults)
            }
        })
        .collect();
    let a = single.answer_batch(&queries);
    let b = sharded.answer_batch(&queries);
    for ((query, x), y) in queries.iter().zip(&a).zip(&b) {
        assert_eq!(x.distance, y.distance, "{query:?}");
        assert_eq!(x.path.is_some(), y.path.is_some());
    }
}

/// Checks one backend's answer against the single oracle's: bit-identical
/// `Option<f64>` distance, and — for path queries — a genuine walk on the
/// given live spanner with the same endpoints and total weight.
fn assert_answer_matches(
    name: &str,
    round: usize,
    spanner: &Graph,
    query: &Query,
    expected: &Answer,
    got: &Answer,
) {
    assert_eq!(
        expected.distance, got.distance,
        "{name} round {round}: distance diverged for {query:?}"
    );
    match (&expected.path, &got.path) {
        (None, None) => {}
        (Some(reference), Some(path)) => {
            assert_eq!(path.first(), reference.first(), "{name} round {round}");
            assert_eq!(path.last(), reference.last(), "{name} round {round}");
            let mut walked = 0.0;
            for pair in path.windows(2) {
                let e = spanner
                    .edge_between(pair[0], pair[1])
                    .unwrap_or_else(|| panic!("{name} round {round}: non-spanner hop in {path:?}"));
                walked += spanner.weight(e);
                assert!(!query.faults.contains_vertex(pair[0]));
            }
            let d = got.distance.expect("path answers carry a distance");
            assert!(
                (walked - d).abs() < 1e-9,
                "{name} round {round}: path length {walked} != distance {d}"
            );
        }
        other => panic!("{name} round {round}: path presence diverged: {other:?}"),
    }
}

/// The scale-tier contract, end to end: single oracle, flat sharded oracle,
/// and two-level hierarchical oracle — built from the same deterministic
/// construction over the same leaf-plan options — agree **exactly** on every
/// query, and keep agreeing across permanent fault waves (each backend runs
/// its own churn loop: global repair plus shard/leaf rebuild fan-out).
#[test]
fn hierarchical_matches_flat_and_single_across_churn() {
    let mut r = rng(8107);
    let graph = generators::connected_gnp(140, 0.05, &mut r);
    let n = graph.vertex_count();
    let params = SpannerParams::vertex(2, 2);
    let hier_options = HierarchicalOptions {
        plan: ShardPlanOptions {
            shards: 4,
            ..ShardPlanOptions::default()
        },
        ..HierarchicalOptions::default()
    };

    let mut single = FaultOracle::build(graph.clone(), params, OracleOptions::default());
    let mut flat = ShardedOracle::build(graph.clone(), params, hier_options.flat());
    let mut hier = HierarchicalOracle::build(graph, params, hier_options);
    let config = ChurnConfig::default();

    for wave_round in 0..4usize {
        assert_eq!(
            single.spanner().edge_count(),
            flat.spanner().edge_count(),
            "wave {wave_round}: flat spanner diverged"
        );
        assert_eq!(
            single.spanner().edge_count(),
            hier.spanner().edge_count(),
            "wave {wave_round}: hierarchical spanner diverged"
        );

        for query_round in 0..12usize {
            let size = query_round % 3; // |F| in {0, 1, 2}, design budget f = 2
            let faults = sample_fault_set(single.graph(), FaultModel::Vertex, size, &[], &mut r);
            for _ in 0..3 {
                let u = vid(r.gen_range(0..n));
                let v = vid(r.gen_range(0..n));
                let query = if query_round % 2 == 0 {
                    Query::path(u, v, faults.clone())
                } else {
                    Query::distance(u, v, faults.clone())
                };
                let expected = single.answer(&query);
                let round = wave_round * 100 + query_round;
                assert_answer_matches(
                    "flat",
                    round,
                    flat.spanner(),
                    &query,
                    &expected,
                    &flat.answer(&query),
                );
                assert_answer_matches(
                    "hier",
                    round,
                    hier.spanner(),
                    &query,
                    &expected,
                    &hier.answer(&query),
                );
            }
        }

        // Permanent damage: the same wave hits all three backends, each of
        // which repairs through its own churn path.
        let wave = sample_fault_set(single.graph(), FaultModel::Vertex, 2, &[], &mut r);
        let single_outcome = single.apply_wave(&wave, &config);
        let flat_outcome = flat.apply_wave(&wave, &config);
        let hier_outcome = hier.apply_wave(&wave, &config);
        assert_eq!(
            single_outcome.edges_added, flat_outcome.global.edges_added,
            "wave {wave_round}: flat repair diverged"
        );
        assert_eq!(
            single_outcome.edges_added, hier_outcome.global.edges_added,
            "wave {wave_round}: hierarchical repair diverged"
        );
    }

    // Traffic must actually exercise both scaling layers, not just the
    // global fallback.
    let flat_snap = flat.metrics().snapshot();
    assert!(flat_snap.local + flat_snap.stitched > 0);
    let hier_snap = hier.metrics().snapshot();
    assert!(hier_snap.local + hier_snap.stitched > 0);
}
