//! The paper's main contribution: the polynomial-time modified greedy
//! fault-tolerant spanner (Algorithms 3 and 4).
//!
//! The classical greedy algorithm of [BDPW18, BP19] decides whether to add an
//! edge `{u, v}` by searching for a fault set of size at most `f` that
//! destroys every stretch-`(2k − 1)` path — an exponential-time step. The
//! modification replaces that step with the polynomial-time
//! [`LBC(t, α)`](crate::lbc) gap decision with `t = 2k − 1` and `α = f`,
//! paying only a factor `k` in the size bound:
//!
//! * **Correctness** (Theorems 5 and 10): the output is an `f`-fault-tolerant
//!   `(2k − 1)`-spanner, for unweighted graphs with any edge ordering and for
//!   weighted graphs when edges are considered in nondecreasing weight order.
//! * **Size** (Theorem 8): at most `O(k · f^{1−1/k} · n^{1+1/k})` edges.
//! * **Time** (Theorem 9): `O(m · k · f^{2−1/k} · n^{1+1/k})`.

use ftspan_graph::Graph;

use crate::repair::full_respan;
use crate::stats::SpannerResult;
use crate::SpannerParams;

/// Options for [`poly_greedy_spanner_with`] and the warm-start respan of
/// [`crate::repair`], which run the same sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolyGreedyOptions {
    /// When `true`, record the LBC certificate for every added edge (the sets
    /// `F_e` of Lemma 6). Adds memory proportional to `f · k` per spanner
    /// edge.
    pub collect_certificates: bool,
}

/// Builds an `f`-fault-tolerant `(2k − 1)`-spanner in polynomial time using
/// the modified greedy algorithm with default options (no certificates).
///
/// Edges are considered in nondecreasing weight order, ties broken by
/// insertion order. This single entry point covers both Algorithm 3
/// (unweighted: all weights are 1, so the order is insertion order) and
/// Algorithm 4 (weighted, where the order is required for correctness).
///
/// # Examples
///
/// ```
/// use ftspan::{poly_greedy_spanner, SpannerParams};
/// use ftspan_graph::generators;
///
/// let g = generators::complete(30);
/// let result = poly_greedy_spanner(&g, SpannerParams::vertex(2, 1));
/// assert!(result.spanner.edge_count() < g.edge_count());
/// assert_eq!(result.spanner.vertex_count(), 30);
/// ```
#[must_use]
pub fn poly_greedy_spanner(graph: &Graph, params: SpannerParams) -> SpannerResult {
    poly_greedy_spanner_with(graph, params, &PolyGreedyOptions::default())
}

/// Builds the modified greedy spanner with explicit [`PolyGreedyOptions`].
///
/// The construction is the warm-start respan of [`crate::repair`] over every
/// edge of `graph`, starting from the empty spanner `H = (V, ∅)`: with
/// nothing to force-include, each edge in turn pays one LBC decision against
/// the edges accepted before it. The returned spanner is compacted.
#[must_use]
pub fn poly_greedy_spanner_with(
    graph: &Graph,
    params: SpannerParams,
    options: &PolyGreedyOptions,
) -> SpannerResult {
    let outcome = full_respan(graph, &Graph::empty_like(graph), params, options);
    let mut stats = outcome.stats;
    stats.algorithm = "poly-greedy";
    SpannerResult {
        spanner: outcome.spanner,
        params,
        stats,
        certificates: outcome.certificates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::lbc::is_length_bounded_cut;
    use crate::verify::{verify_spanner, VerificationMode};
    use ftspan_graph::generators;
    use ftspan_graph::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spanner_of_a_tree_is_the_tree_itself() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::random_tree_with_chords(30, 0, &mut rng);
        let result = poly_greedy_spanner(&g, SpannerParams::vertex(2, 2));
        // Every tree edge is a bridge: even with zero faults there is no
        // alternative path, so the greedy must keep all of them.
        assert_eq!(result.spanner.edge_count(), g.edge_count());
    }

    #[test]
    fn complete_graph_is_sparsified() {
        let g = generators::complete(40);
        let result = poly_greedy_spanner(&g, SpannerParams::vertex(2, 1));
        assert!(result.spanner.edge_count() < g.edge_count() / 2);
        assert!(is_connected(&result.spanner));
    }

    #[test]
    fn fault_free_case_matches_classic_greedy_behaviour() {
        // With f = 0 the LBC test degenerates to "is there a path of at most
        // 2k-1 hops", i.e. the classical greedy spanner condition.
        let g = generators::complete(25);
        let result = poly_greedy_spanner(&g, SpannerParams::vertex(2, 0));
        // A (2k-1)-spanner of K_n for k=2 ends up triangle-free... not quite;
        // but it must be much sparser than K_n and still connected.
        assert!(result.spanner.edge_count() < 100);
        assert!(is_connected(&result.spanner));
    }

    #[test]
    fn output_is_valid_vft_spanner_exhaustively_checked() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::connected_gnp(18, 0.3, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let result = poly_greedy_spanner(&g, params);
        let report = verify_spanner(&g, &result.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn output_is_valid_eft_spanner_exhaustively_checked() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::connected_gnp(14, 0.35, &mut rng);
        let params = SpannerParams::edge(2, 1);
        let result = poly_greedy_spanner(&g, params);
        let report = verify_spanner(&g, &result.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn weighted_output_is_valid_spanner() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = generators::connected_gnp(16, 0.3, &mut rng);
        let g = generators::with_random_weights(&base, 1.0, 10.0, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let result = poly_greedy_spanner(&g, params);
        let report = verify_spanner(&g, &result.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn size_respects_theorem_8_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        for &f in &[1u32, 2, 3] {
            let g = generators::connected_gnp(60, 0.4, &mut rng);
            let params = SpannerParams::vertex(2, f);
            let result = poly_greedy_spanner(&g, params);
            let bound = bounds::poly_greedy_size_bound(60, 2, f);
            assert!(
                (result.spanner.edge_count() as f64) <= bound,
                "spanner has {} edges, bound {bound}",
                result.spanner.edge_count()
            );
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = generators::complete(20);
        let result = poly_greedy_spanner(&g, SpannerParams::vertex(2, 1));
        assert_eq!(result.stats.input_edges, g.edge_count());
        assert_eq!(result.stats.lbc_calls, g.edge_count());
        // `bfs_runs` counts executed passes: the incremental engine shares
        // first-round trees across same-source edges, so the aggregate can
        // be below one pass per LBC call but never above the α + 1 budget.
        assert!(result.stats.bfs_runs > 0);
        assert!(result.stats.bfs_runs <= 2 * g.edge_count());
        assert_eq!(result.stats.spanner_edges, result.spanner.edge_count());
        assert!(result.stats.retention() > 0.0);
    }

    #[test]
    fn certificates_witness_each_added_edge() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::connected_gnp(20, 0.3, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let options = PolyGreedyOptions {
            collect_certificates: true,
        };
        let result = poly_greedy_spanner_with(&g, params, &options);
        assert_eq!(result.certificates.len(), result.spanner.edge_count());
        // Each certificate is bounded as in Lemma 6 and references a real
        // edge of both graphs. (The cut was valid for the *partial* spanner
        // at insertion time, so we only check the size bound here.)
        let max_cut = (params.f() * (params.stretch() - 1)) as usize;
        for cert in &result.certificates {
            assert!(cert.cut.len() <= max_cut);
            let (u, v) = g.edge(cert.input_edge).endpoints();
            let (hu, hv) = result.spanner.edge(cert.spanner_edge).endpoints();
            assert_eq!((u, v), (hu, hv));
        }
    }

    #[test]
    fn first_certificate_cut_remains_valid_against_prefix() {
        // The first edge added sees an empty spanner, so its certificate must
        // be the empty cut and trivially valid.
        let g = generators::complete(10);
        let options = PolyGreedyOptions {
            collect_certificates: true,
        };
        let result = poly_greedy_spanner_with(&g, SpannerParams::vertex(2, 1), &options);
        let first = &result.certificates[0];
        assert!(first.cut.is_empty());
        let (u, v) = g.edge(first.input_edge).endpoints();
        let empty = Graph::empty_like(&g);
        assert!(is_length_bounded_cut(&empty, &first.cut, u, v, 3));
    }

    #[test]
    fn spanner_is_subgraph_with_same_weights() {
        let mut rng = StdRng::seed_from_u64(8);
        let base = generators::connected_gnp(20, 0.3, &mut rng);
        let g = generators::with_random_weights(&base, 1.0, 4.0, &mut rng);
        let result = poly_greedy_spanner(&g, SpannerParams::vertex(3, 2));
        assert!(result.spanner.is_edge_subgraph_of(&g));
        for (_, e) in result.spanner.edges() {
            let orig = g.edge_between(e.source(), e.target()).unwrap();
            assert_eq!(g.weight(orig), e.weight());
        }
    }

    #[test]
    fn higher_f_never_produces_a_smaller_spanner_on_average() {
        // Not a pointwise guarantee, but across a few seeds the aggregate
        // trend must hold: tolerating more faults needs more edges.
        let mut total_f1 = 0usize;
        let mut total_f3 = 0usize;
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(40, 0.5, &mut rng);
            total_f1 += poly_greedy_spanner(&g, SpannerParams::vertex(2, 1))
                .spanner
                .edge_count();
            total_f3 += poly_greedy_spanner(&g, SpannerParams::vertex(2, 3))
                .spanner
                .edge_count();
        }
        assert!(total_f3 >= total_f1);
    }

    #[test]
    fn ring_of_cliques_keeps_all_bridges() {
        let g = generators::ring_of_cliques(4, 4);
        let params = SpannerParams::vertex(2, 2);
        let result = poly_greedy_spanner(&g, params);
        // Bridge edges are the only connection between consecutive cliques, so
        // they must survive in any spanner.
        for c in 0..4 {
            let from = c * 4 + 3;
            let to = ((c + 1) % 4) * 4;
            assert!(result.spanner.has_edge_between(from, to));
        }
    }

    #[test]
    fn empty_and_tiny_graphs_are_handled() {
        let g = Graph::new(0);
        let r = poly_greedy_spanner(&g, SpannerParams::vertex(2, 1));
        assert_eq!(r.spanner.vertex_count(), 0);
        let g = Graph::new(1);
        let r = poly_greedy_spanner(&g, SpannerParams::vertex(2, 1));
        assert_eq!(r.spanner.edge_count(), 0);
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1);
        let r = poly_greedy_spanner(&g, SpannerParams::vertex(2, 1));
        assert_eq!(r.spanner.edge_count(), 1);
    }
}
