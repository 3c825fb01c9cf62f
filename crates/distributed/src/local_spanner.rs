//! The LOCAL-model fault-tolerant spanner construction (Theorem 12).
//!
//! The algorithm is exactly the paper's: build a padded decomposition
//! (Theorem 11), gather each cluster's induced subgraph at its center, run a
//! centralized fault-tolerant greedy there, and broadcast the chosen edges
//! back. Because the LOCAL model allows unbounded message sizes, the gather
//! and scatter are plain convergecast/broadcast over the cluster BFS trees
//! and cost `O(cluster diameter) = O(log n)` rounds; all clusters of all
//! partitions proceed in parallel.
//!
//! The decomposition flood is executed in the round engine; the convergecast
//! and broadcast are charged at their exact tree depth (`2·diameter + 2`
//! rounds) while their content — which the LOCAL model lets the center learn
//! wholesale — is computed directly from the induced subgraph. Each cluster
//! center runs the paper's polynomial-time modified greedy (Algorithms 3/4),
//! which loses a factor `k` in the per-cluster size bound against the exact
//! greedy of Algorithm 1 but keeps local computation polynomial.

use ftspan::{poly_greedy_spanner, SpannerParams, SpannerStats};
use ftspan_graph::Graph;
use rand::Rng;

use crate::decomposition::{padded_decomposition, DecompositionOptions};
use crate::metrics::RoundStats;

/// Result of a distributed spanner construction.
#[derive(Clone, Debug)]
pub struct DistributedSpannerResult {
    /// The constructed fault-tolerant spanner, on the input vertex set.
    pub spanner: Graph,
    /// Parameters targeted by the construction.
    pub params: SpannerParams,
    /// Round/message accounting for the whole distributed execution.
    pub rounds: RoundStats,
    /// Aggregated statistics of the centralized per-cluster constructions.
    pub local_work: SpannerStats,
    /// Number of partitions used by the decomposition.
    pub partitions: usize,
}

/// Runs the LOCAL-model construction.
///
/// # Examples
///
/// ```
/// use ftspan::SpannerParams;
/// use ftspan_distributed::local_ft_spanner;
/// use ftspan_graph::generators;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let g = generators::connected_gnp(40, 0.2, &mut rng);
/// let result = local_ft_spanner(&g, SpannerParams::vertex(2, 1), &mut rng);
/// assert!(result.spanner.edge_count() <= g.edge_count());
/// ```
#[must_use]
pub fn local_ft_spanner<R: Rng + ?Sized>(
    graph: &Graph,
    params: SpannerParams,
    rng: &mut R,
) -> DistributedSpannerResult {
    // 1. Padded decomposition (distributed flood, Theorem 11).
    let decomposition = padded_decomposition(graph, &DecompositionOptions::default(), rng);

    // 2. Per-cluster gather → centralized greedy → scatter.
    let mut spanner = Graph::empty_like(graph);
    let mut local_work = SpannerStats {
        algorithm: "local-ft-spanner",
        input_vertices: graph.vertex_count(),
        input_edges: graph.edge_count(),
        ..SpannerStats::default()
    };
    let mut max_cluster_diameter = 0u32;
    for partition in &decomposition.partitions {
        max_cluster_diameter = max_cluster_diameter.max(partition.max_cluster_hop_diameter(graph));
        for (_, members) in partition.clusters() {
            if members.len() < 2 {
                continue;
            }
            let (induced, original) = graph.induced_subgraph(&members);
            if induced.edge_count() == 0 {
                continue;
            }
            let cluster_result = poly_greedy_spanner(&induced, params);
            local_work.lbc_calls += cluster_result.stats.lbc_calls;
            local_work.bfs_runs += cluster_result.stats.bfs_runs;
            local_work.fault_sets_enumerated += cluster_result.stats.fault_sets_enumerated;
            for (_, edge) in cluster_result.spanner.edges() {
                let (a, b) = edge.endpoints();
                let (u, v) = (original[a.index()], original[b.index()]);
                if spanner.edge_between(u, v).is_none() {
                    spanner.add_edge(u.index(), v.index(), edge.weight());
                }
            }
        }
    }
    local_work.spanner_edges = spanner.edge_count();

    // Convergecast (gather) + broadcast (scatter) over each cluster's BFS
    // tree: depth ≤ diameter each way, plus one round to announce completion.
    // All clusters and partitions run in parallel in LOCAL.
    let gather_scatter = RoundStats {
        rounds: 2 * max_cluster_diameter as usize + 2,
        ..RoundStats::default()
    };
    let rounds = decomposition.stats.sequential(gather_scatter);

    DistributedSpannerResult {
        spanner,
        params,
        rounds,
        local_work,
        partitions: decomposition.partitions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan::bounds;
    use ftspan::verify::{verify_spanner, VerificationMode};
    use ftspan_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn local_spanner_is_a_valid_ft_spanner() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::connected_gnp(18, 0.3, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let result = local_ft_spanner(&g, params, &mut rng);
        let report = verify_spanner(&g, &result.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
        assert!(result.spanner.is_edge_subgraph_of(&g));
    }

    #[test]
    fn round_count_is_logarithmic_not_linear_in_n() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::path(200);
        let params = SpannerParams::vertex(2, 1);
        let result = local_ft_spanner(&g, params, &mut rng);
        // Generous constant over the O(log n) bound; crucially far below the
        // diameter of the path (199), which a naive algorithm would need.
        let bound = 80.0 * bounds::local_round_bound(200);
        assert!(
            (result.rounds.rounds as f64) <= bound,
            "rounds {} exceed {bound}",
            result.rounds.rounds
        );
    }

    #[test]
    fn size_stays_within_the_local_reference_curve() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::connected_gnp(60, 0.4, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let result = local_ft_spanner(&g, params, &mut rng);
        // Theorem 12 curve times the extra factor k of the polynomial
        // per-cluster algorithm, and never more than m.
        let bound = (2.0 * bounds::local_size_bound(60, 2, 1)).min(g.edge_count() as f64) + 60.0;
        assert!((result.spanner.edge_count() as f64) <= bound);
    }

    #[test]
    fn partitions_count_matches_decomposition() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = generators::grid(6, 6);
        let result = local_ft_spanner(&g, SpannerParams::vertex(2, 1), &mut rng);
        let expected = ((36.0f64).log2() * 4.0).ceil() as usize;
        assert_eq!(result.partitions, expected);
        assert_eq!(result.local_work.algorithm, "local-ft-spanner");
    }

    #[test]
    fn correctness_precondition_reported() {
        let mut rng = StdRng::seed_from_u64(15);
        let g = generators::connected_gnp(30, 0.15, &mut rng);
        let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
        assert!(d.covers_all_edges(&g));
    }

    #[test]
    fn edge_fault_model_is_supported() {
        let mut rng = StdRng::seed_from_u64(16);
        let g = generators::connected_gnp(14, 0.35, &mut rng);
        let params = SpannerParams::edge(2, 1);
        let result = local_ft_spanner(&g, params, &mut rng);
        let report = verify_spanner(&g, &result.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn tiny_graphs_are_handled() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in 0..3usize {
            let g = Graph::new(n);
            let r = local_ft_spanner(&g, SpannerParams::vertex(2, 1), &mut rng);
            assert_eq!(r.spanner.edge_count(), 0);
            assert_eq!(r.spanner.vertex_count(), n);
        }
    }
}
