//! Pins the incremental LBC repair engine to the from-scratch reference
//! implementations.
//!
//! Two families of properties:
//!
//! * **Scratch-reusing decisions are bit-identical.** `decide_lbc_with`
//!   (pooled fault views, pooled BFS buffers, shared same-source
//!   first-round trees) must return exactly the decision *and* certificate
//!   of the from-scratch `decide_lbc`, for both fault models, across all
//!   four random generator families, including sequences that interleave
//!   decisions with spanner growth (the access pattern of the greedy sweep
//!   and the warm-start respan).
//! * **Respan output is candidate-order invariant.** `respan_candidates`
//!   sorts its sweep by `(weight, class, index)`, so permuting or
//!   duplicating the candidate list must not change the rebuilt spanner,
//!   the `added` delta, or the decision counters.

use ftspan::lbc::{decide_lbc, decide_lbc_with, LbcScratch};
use ftspan::repair::{respan_candidates, respan_candidates_with, RepairScratch};
use ftspan::{poly_greedy_spanner, FaultModel, PolyGreedyOptions, SpannerParams};
use ftspan_graph::{generators, vid, EdgeId, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One of the four random generator families, by index (the same palette as
/// the CSR model suite: gnp, Barabási–Albert, Watts–Strogatz, and weighted
/// geometric).
fn family_graph(family: usize, n: usize, seed: u64) -> Graph {
    let mut r = StdRng::seed_from_u64(seed);
    match family {
        0 => generators::connected_gnp(n, 0.25, &mut r),
        1 => generators::barabasi_albert(n, 3, &mut r),
        2 => generators::watts_strogatz(n, 4, 0.2, &mut r),
        _ => {
            let mut g = generators::random_geometric(n, 0.35, &mut r);
            generators::overlay_random_spanning_tree(&mut g, &mut r);
            g
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scratch_decisions_match_from_scratch_decide_lbc(
        family in 0usize..4,
        n in 10usize..32,
        seed in 0u64..1_000,
        t in 2u32..6,
        alpha in 0u32..4,
    ) {
        let g = family_graph(family, n, seed);
        let mut scratch = LbcScratch::new();
        let mut r = StdRng::seed_from_u64(seed ^ 0xABCD);
        for model in [FaultModel::Vertex, FaultModel::Edge] {
            // Random pairs, including repeated sources so the shared
            // first-round tree actually gets exercised and re-used.
            let mut pairs = Vec::new();
            for _ in 0..12 {
                let u = vid(r.gen_range(0..n));
                for _ in 0..3 {
                    let v = vid(r.gen_range(0..n));
                    if u != v {
                        pairs.push((u, v));
                    }
                }
            }
            for (u, v) in pairs {
                let (reference, _) = decide_lbc(&g, model, u, v, t, alpha);
                let (pooled, stats) = decide_lbc_with(&mut scratch, &g, model, u, v, t, alpha);
                prop_assert_eq!(&pooled, &reference);
                prop_assert!(stats.bfs_runs <= (alpha + 1) as usize);
            }
        }
    }

    #[test]
    fn scratch_decisions_survive_interleaved_spanner_growth(
        family in 0usize..4,
        n in 10usize..28,
        seed in 0u64..1_000,
    ) {
        // Replay the greedy sweep's access pattern on a growing spanner —
        // a decision per input edge, adding the YES edges as we go — and
        // demand the scratch path reproduce the from-scratch path exactly,
        // spanner included.
        let g = family_graph(family, n, seed);
        let params = SpannerParams::vertex(2, 1);
        let (t, alpha) = (params.stretch(), params.f());
        let mut scratch = LbcScratch::new();
        let mut by_reference = Graph::empty_like(&g);
        let mut by_scratch = Graph::empty_like(&g);
        for id in g.edge_ids_by_weight() {
            let (u, v) = g.edge(id).endpoints();
            let (reference, _) = decide_lbc(&by_reference, FaultModel::Vertex, u, v, t, alpha);
            let (pooled, _) =
                decide_lbc_with(&mut scratch, &by_scratch, FaultModel::Vertex, u, v, t, alpha);
            prop_assert_eq!(&pooled, &reference);
            if reference.is_yes() {
                by_reference.add_edge(u.index(), v.index(), g.edge(id).weight());
                by_scratch.add_edge(u.index(), v.index(), g.edge(id).weight());
            }
        }
        // And the packaged construction (which runs on the engine) agrees
        // with the edge set the reference decisions accumulated.
        let built = poly_greedy_spanner(&g, params);
        prop_assert_eq!(built.spanner.edge_count(), by_reference.edge_count());
        for (_, e) in by_reference.edges() {
            prop_assert!(built.spanner.edge_between(e.source(), e.target()).is_some());
        }
    }

    #[test]
    fn respan_is_invariant_under_candidate_order_and_duplication(
        family in 0usize..4,
        n in 10usize..28,
        seed in 0u64..1_000,
        drop_stride in 2usize..5,
    ) {
        let g = family_graph(family, n, seed);
        let params = SpannerParams::vertex(2, 1);
        let built = poly_greedy_spanner(&g, params);
        // Damage the spanner so the respan has real decisions to make.
        let keep: Vec<EdgeId> = built
            .spanner
            .edge_ids()
            .filter(|e| e.index() % drop_stride != 0)
            .collect();
        let damaged = built.spanner.edge_subgraph(keep);
        let candidates: Vec<EdgeId> = g.edge_ids().collect();
        let options = PolyGreedyOptions::default();

        let reference = respan_candidates(&g, &damaged, params, &candidates, &options);

        // Shuffle and duplicate the candidate list: the (weight, class,
        // index) sweep order — and with it every decision — must not move.
        let mut shuffled = candidates.clone();
        let mut r = StdRng::seed_from_u64(seed ^ 0x5EED);
        shuffled.shuffle(&mut r);
        let mut noisy = shuffled.clone();
        noisy.extend_from_slice(&shuffled[..candidates.len() / 2]);
        let mut scratch = RepairScratch::new();
        let permuted =
            respan_candidates_with(&mut scratch, &g, &damaged, params, &noisy, &options);

        prop_assert_eq!(permuted.added.clone(), reference.added.clone());
        prop_assert_eq!(permuted.stats.lbc_calls, reference.stats.lbc_calls);
        prop_assert_eq!(
            permuted.spanner.edge_count(),
            reference.spanner.edge_count()
        );
        for (_, e) in reference.spanner.edges() {
            let id = permuted.spanner.edge_between(e.source(), e.target());
            prop_assert!(id.is_some());
            prop_assert_eq!(permuted.spanner.weight(id.unwrap()), e.weight());
        }
        // Reusing the same scratch for a second pass changes nothing.
        let again = respan_candidates_with(&mut scratch, &g, &damaged, params, &noisy, &options);
        prop_assert_eq!(again.added, reference.added);
    }
}
