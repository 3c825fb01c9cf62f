//! Property-based tests of the core invariants, on randomly generated graphs
//! and parameters.

use ftspan::lbc::{decide_vertex_lbc, is_length_bounded_cut, LbcDecision};
use ftspan::verify::{verify_spanner, VerificationMode};
use ftspan::{poly_greedy_spanner, sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_graph::bfs::{bfs_hop_distances, shortest_hop_path_within};
use ftspan_graph::dijkstra::{dijkstra_distances, weighted_distance};
use ftspan_graph::girth::girth;
use ftspan_graph::{generators, vid, FaultView, Graph, GraphView, VertexId};
use ftspan_oracle::{
    BoundaryIndex, FaultOracle, OracleOptions, ShardPlan, ShardPlanOptions, ShardedOptions,
    ShardedOracle,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a connected random graph described by (n, edge probability, seed).
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (4usize..24, 0.15f64..0.6, 0u64..1_000).prop_map(|(n, p, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::connected_gnp(n, p, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The modified greedy output is always a subgraph, never denser than the
    /// input, and satisfies the spanner property with no faults applied.
    #[test]
    fn poly_greedy_basic_invariants(graph in graph_strategy(), k in 2u32..4, f in 0u32..3) {
        let params = SpannerParams::vertex(k, f);
        let result = poly_greedy_spanner(&graph, params);
        prop_assert!(result.spanner.is_edge_subgraph_of(&graph));
        prop_assert!(result.spanner.edge_count() <= graph.edge_count());
        let report = verify_spanner(
            &graph,
            &result.spanner,
            SpannerParams::vertex(k, 0),
            VerificationMode::Exhaustive,
        );
        prop_assert!(report.is_valid());
    }

    /// Exhaustive fault-tolerance for f = 1 (kept small so the exhaustive
    /// verifier stays fast inside proptest).
    #[test]
    fn poly_greedy_is_fault_tolerant(graph in graph_strategy(), k in 2u32..3) {
        let params = SpannerParams::vertex(k, 1);
        let result = poly_greedy_spanner(&graph, params);
        let report = verify_spanner(&graph, &result.spanner, params, VerificationMode::Exhaustive);
        prop_assert!(report.is_valid(), "violations: {:?}", report.violations.len());
    }

    /// A YES answer from the LBC approximation always comes with a certificate
    /// that really is a length-bounded cut.
    #[test]
    fn lbc_yes_certificates_are_real_cuts(
        graph in graph_strategy(),
        t in 2u32..6,
        alpha in 1u32..4,
    ) {
        let u = vid(0);
        let v = vid(graph.vertex_count() - 1);
        let (decision, stats) = decide_vertex_lbc(&graph, u, v, t, alpha);
        prop_assert!(stats.bfs_runs <= alpha as usize + 1);
        if let LbcDecision::Yes(cut) = decision {
            prop_assert!(cut.len() <= (alpha * (t.saturating_sub(1))) as usize);
            prop_assert!(is_length_bounded_cut(&graph, &cut, u, v, t));
        }
    }

    /// BFS hop distances and Dijkstra agree on unit-weighted graphs, with or
    /// without faults applied.
    #[test]
    fn bfs_and_dijkstra_agree_on_unit_weights(graph in graph_strategy(), blocked in 0usize..4) {
        let mut view = FaultView::new(&graph);
        for i in 0..blocked.min(graph.vertex_count().saturating_sub(2)) {
            view.block_vertex(VertexId::new(i + 1));
        }
        let source = vid(0);
        let bfs = bfs_hop_distances(&view, source);
        let dij = dijkstra_distances(&view, source);
        for i in 0..graph.vertex_count() {
            match bfs[i] {
                Some(d) => prop_assert!((dij[i] - f64::from(d)).abs() < 1e-9),
                None => prop_assert!(dij[i].is_infinite()),
            }
        }
    }

    /// Hop-bounded search never returns a path longer than its budget, and
    /// agrees with plain BFS about reachability within the budget.
    #[test]
    fn hop_bounded_paths_respect_their_budget(graph in graph_strategy(), budget in 1u32..6) {
        let u = vid(0);
        let v = vid(graph.vertex_count() / 2);
        let dist = bfs_hop_distances(&graph, u)[v.index()];
        match shortest_hop_path_within(&graph, u, v, budget) {
            Some(path) => {
                prop_assert!(path.hop_count() as u32 <= budget);
                prop_assert_eq!(Some(path.hop_count() as u32), dist);
            }
            None => prop_assert!(dist.is_none_or(|d| d > budget)),
        }
    }

    /// Applying and clearing fault sets round-trips the view to the full graph.
    #[test]
    fn fault_view_round_trip(graph in graph_strategy(), faults in 0usize..5) {
        let victims: Vec<VertexId> = (0..faults.min(graph.vertex_count()))
            .map(VertexId::new)
            .collect();
        let set = FaultSet::vertices(victims.clone());
        let mut view = set.apply(&graph);
        prop_assert_eq!(view.live_vertex_count(), graph.vertex_count() - victims.len());
        view.clear();
        prop_assert_eq!(view.live_vertex_count(), graph.vertex_count());
        for v in graph.vertices() {
            prop_assert_eq!(view.neighbors(v).count(), graph.degree(v));
        }
    }

    /// The non-fault-tolerant greedy spanner of an unweighted graph has girth
    /// greater than 2k — the structural fact behind every size bound used in
    /// the paper.
    #[test]
    fn classic_greedy_girth_exceeds_2k(graph in graph_strategy(), k in 2u32..4) {
        let result = ftspan::nonft::greedy_spanner(&graph, k);
        if let Some(g) = girth(&result.spanner) {
            prop_assert!(g > 2 * k, "girth {g} with k {k}");
        }
    }

    /// Shard assignment is a partition of the vertex set — every vertex in
    /// exactly one shard — and deterministic under a fixed seed.
    #[test]
    fn shard_plan_is_a_deterministic_partition(
        graph in graph_strategy(),
        shards in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let options = ShardPlanOptions { shards, seed };
        let plan = ShardPlan::build(&graph, &options);
        prop_assert_eq!(plan.vertex_count(), graph.vertex_count());
        prop_assert!(plan.shard_count() >= 1 && plan.shard_count() <= shards);
        // Partition: every vertex appears in exactly one core, and cores
        // agree with the per-vertex assignment.
        let mut seen = vec![0usize; graph.vertex_count()];
        for s in 0..plan.shard_count() {
            for &v in plan.core(s) {
                seen[v.index()] += 1;
                prop_assert_eq!(plan.shard_of(v) as usize, s);
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "vertex in {seen:?} cores");
        // Deterministic: an independent rebuild with the same seed agrees.
        prop_assert_eq!(plan, ShardPlan::build(&graph, &options));
    }

    /// Every spanner edge whose endpoints lie in different shards appears in
    /// the boundary index, and the index contains nothing else.
    #[test]
    fn every_cut_edge_appears_in_the_boundary_index(
        graph in graph_strategy(),
        shards in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let params = SpannerParams::vertex(2, 1);
        let spanner = poly_greedy_spanner(&graph, params).spanner;
        let plan = ShardPlan::build(
            &graph,
            &ShardPlanOptions { shards, seed },
        );
        let index = BoundaryIndex::build(&spanner, &plan);
        let mut expected = 0usize;
        for (id, edge) in spanner.edges() {
            let (u, v) = edge.endpoints();
            if plan.shard_of(u) == plan.shard_of(v) {
                continue;
            }
            expected += 1;
            prop_assert!(
                index.cut_edges().iter().any(|c| c.edge == id),
                "cut edge {id} ({u}, {v}) missing from the boundary index"
            );
            prop_assert!(index.is_portal(u) && index.is_portal(v));
            let (a, b) = (plan.shard_of(u), plan.shard_of(v));
            prop_assert!(index.cut_edges_between(a, b).any(|c| c.edge == id));
        }
        // No extras: the index holds exactly the crossing edges.
        prop_assert_eq!(index.cut_edges().len(), expected);
    }

    /// Stitched cross-shard answers respect the `(2k − 1)` stretch bound
    /// against fresh Dijkstra on the faulted *base* graph — sharding never
    /// weakens the spanner guarantee the single oracle provides.
    #[test]
    fn stitched_cross_shard_paths_respect_the_stretch_bound(
        graph in graph_strategy(),
        f in 0u32..3,
        seed in 0u64..500,
    ) {
        let params = SpannerParams::vertex(2, f);
        let n = graph.vertex_count();
        let oracle = ShardedOracle::build(
            graph,
            params,
            ShardedOptions {
                plan: ShardPlanOptions { shards: 3, seed },
                ..ShardedOptions::default()
            },
        );
        let stretch = oracle.stretch_bound();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            let u = vid(rng.gen_range(0..n));
            let v = vid(rng.gen_range(0..n));
            if u == v || oracle.plan().shard_of(u) == oracle.plan().shard_of(v) {
                continue;
            }
            // |F| <= f, never faulting the terminals (Definition 1).
            let faults = sample_fault_set(
                oracle.graph(),
                FaultModel::Vertex,
                f as usize,
                &[u, v],
                &mut rng,
            );
            let answer = oracle.path(u, v, &faults);
            let graph_view = faults.apply(oracle.graph());
            if let Some(d_g) = weighted_distance(&graph_view, u, v) {
                let (d_h, path) = answer.expect("surviving pairs stay connected");
                prop_assert!(
                    d_h <= stretch * d_g + 1e-9,
                    "stitched stretch violated: {} > {} * {}", d_h, stretch, d_g
                );
                // The stitched path is a genuine walk in the global spanner.
                prop_assert_eq!(path.first(), Some(&u));
                prop_assert_eq!(path.last(), Some(&v));
                for pair in path.windows(2) {
                    prop_assert!(
                        oracle.spanner().edge_between(pair[0], pair[1]).is_some()
                    );
                }
            }
        }
    }

    /// Every `FaultOracle` answer equals Dijkstra on `H ∖ F` and respects
    /// the `(2k − 1)` stretch bound against `G ∖ F` — the serving layer
    /// never distorts the spanner guarantee.
    #[test]
    fn oracle_answers_match_dijkstra_and_stretch_bound(
        graph in graph_strategy(),
        f in 0u32..3,
        seed in 0u64..500,
    ) {
        let params = SpannerParams::vertex(2, f);
        let n = graph.vertex_count();
        let oracle = FaultOracle::build(graph, params, OracleOptions::default());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            let u = vid(rng.gen_range(0..n));
            let v = vid(rng.gen_range(0..n));
            if u == v {
                continue;
            }
            // |F| ≤ f, never faulting the terminals (Definition 1).
            let faults = sample_fault_set(
                oracle.graph(),
                FaultModel::Vertex,
                f as usize,
                &[u, v],
                &mut rng,
            );
            let answer = oracle.distance(u, v, &faults);
            let spanner_view = faults.apply(oracle.spanner());
            prop_assert_eq!(answer, weighted_distance(&spanner_view, u, v));
            let graph_view = faults.apply(oracle.graph());
            if let Some(d_g) = weighted_distance(&graph_view, u, v) {
                let d_h = answer.expect("spanner must keep surviving pairs connected");
                prop_assert!(
                    d_h <= f64::from(params.stretch()) * d_g + 1e-9,
                    "stretch violated: {} > {} * {}", d_h, params.stretch(), d_g
                );
            }
        }
    }
}

/// Strategy: an `IdRemap` member set over a large universe, biased toward the
/// shapes the scale tier produces — sparse scatters, high-id clusters near
/// the top of the universe, and page-straddling runs — with duplicates and
/// out-of-range ids mixed in (both must be tolerated, not round-tripped).
fn remap_members_strategy() -> impl Strategy<Value = (usize, Vec<ftspan_graph::VertexId>)> {
    (1usize..=22, 0u64..1_000_000).prop_map(|(log_universe, seed)| {
        let universe = 1usize << log_universe;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut members = Vec::new();
        for _ in 0..rng.gen_range(1..120) {
            let run = rng.gen_range(1usize..64);
            match rng.gen_range(0u8..3) {
                // Sparse scatter anywhere in (or slightly past) the universe.
                0 => members.push(vid(rng.gen_range(0..universe + universe / 4 + 1))),
                // High-id cluster hugging the top of the universe.
                1 => {
                    let base = universe.saturating_sub(1 + rng.gen_range(0usize..4096));
                    members.extend((0..run.min(8)).map(|i| vid(base.saturating_sub(i * 3))));
                }
                // A run straddling a 64-id page boundary.
                _ => {
                    let page_edge = rng.gen_range(0..universe.div_ceil(64).max(1)) * 64;
                    let start = page_edge.saturating_sub(run / 2);
                    members.extend((start..start + run).map(vid));
                }
            }
        }
        (universe, members)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paged `IdRemap` behaves exactly like the obvious dense map on
    /// every member shape the shards produce: first occurrence wins, both
    /// directions round-trip, non-members (and out-of-range ids) map to
    /// `None`, and memory stays proportional to touched pages, not to the
    /// universe.
    #[test]
    fn id_remap_matches_dense_reference((universe, members) in remap_members_strategy()) {
        use ftspan_graph::IdRemap;
        let remap = IdRemap::from_members(universe, &members);

        // Dense reference: first in-range occurrence of each id, in order.
        let mut dense: Vec<Option<usize>> = vec![None; universe];
        let mut expected_members = Vec::new();
        for &v in &members {
            if v.index() < universe && dense[v.index()].is_none() {
                dense[v.index()] = Some(expected_members.len());
                expected_members.push(v);
            }
        }

        prop_assert_eq!(remap.universe_size(), universe);
        prop_assert_eq!(remap.local_count(), expected_members.len());
        prop_assert_eq!(remap.members(), expected_members.as_slice());
        for (local, &global) in expected_members.iter().enumerate() {
            prop_assert_eq!(remap.to_local(global), Some(vid(local)));
            prop_assert_eq!(remap.to_global(vid(local)), global);
        }
        // Probe non-members around every member (page neighbours are the
        // interesting misses) plus the out-of-range frontier.
        for &v in &expected_members {
            for probe in [v.index().wrapping_sub(1), v.index() + 1, v.index() ^ 63] {
                if probe < universe {
                    prop_assert_eq!(remap.to_local(vid(probe)), dense[probe].map(vid));
                }
            }
        }
        prop_assert_eq!(remap.to_local(vid(universe)), None);
        prop_assert_eq!(remap.to_local(vid(universe + 63)), None);

        // Paged storage: at most one 64-slot page per member (plus the page
        // directory and the member list, whose capacity is reserved from the
        // raw input length, duplicates included) — never the dense universe
        // map.
        let pages_touched: std::collections::HashSet<usize> =
            expected_members.iter().map(|v| v.index() / 64).collect();
        let slot_bytes = pages_touched.len() * 64 * 4;
        let directory_bytes = universe.div_ceil(64) * 4;
        let member_bytes = members.len() * 4;
        prop_assert!(
            remap.memory_bytes() <= 2 * (slot_bytes + directory_bytes + member_bytes) + 256,
            "paged remap used {} bytes for {} members over a {} universe",
            remap.memory_bytes(), expected_members.len(), universe
        );
    }
}
