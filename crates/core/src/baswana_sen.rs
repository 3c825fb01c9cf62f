//! The randomized `(2k − 1)`-spanner of Baswana and Sen \[BS07\].
//!
//! The construction clusters vertices for `k − 1` phases, sampling clusters
//! with probability `n^{−1/k}` per phase and connecting unsampled vertices to
//! nearby clusters with their lightest edges, then joins every vertex to each
//! adjacent surviving cluster. It produces a `(2k − 1)`-spanner with
//! `O(k · n^{1+1/k})` edges in expectation, for arbitrary edge weights.
//!
//! In this workspace it plays two roles: a centralized baseline (Theorem 14 is
//! quoted by the paper as the CONGEST substrate) and the inner spanner plugged
//! into the Dinitz–Krauthgamer framework ([`crate::dk`]). The distributed
//! CONGEST implementation lives in `ftspan-distributed`; this module is the
//! sequential reference the distributed version is tested against.

use std::collections::BTreeMap;
use std::time::Instant;

use ftspan_graph::{EdgeId, Graph, VertexId};
use rand::Rng;

use crate::stats::{SpannerResult, SpannerStats};
use crate::SpannerParams;

/// Builds a Baswana–Sen `(2k − 1)`-spanner of `graph`.
///
/// The expected number of edges is `O(k · n^{1+1/k})`; the stretch guarantee
/// holds deterministically (for every random outcome).
///
/// # Examples
///
/// ```
/// use ftspan::baswana_sen::baswana_sen_spanner;
/// use ftspan_graph::generators;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let g = generators::complete(30);
/// let mut rng = StdRng::seed_from_u64(7);
/// let result = baswana_sen_spanner(&g, 2, &mut rng);
/// assert!(result.spanner.edge_count() < g.edge_count());
/// ```
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn baswana_sen_spanner<R: Rng + ?Sized>(graph: &Graph, k: u32, rng: &mut R) -> SpannerResult {
    assert!(k >= 1, "stretch parameter k must be at least 1");
    let start = Instant::now();
    let n = graph.vertex_count();
    let mut spanner = Graph::empty_like(graph);
    let mut stats = SpannerStats {
        algorithm: "baswana-sen",
        input_vertices: n,
        input_edges: graph.edge_count(),
        ..SpannerStats::default()
    };

    if k == 1 {
        // A 1-spanner must preserve distances exactly; keep every edge.
        spanner.union_edges_from(graph);
        stats.spanner_edges = spanner.edge_count();
        stats.elapsed = start.elapsed();
        return SpannerResult {
            spanner,
            params: SpannerParams::vertex(1, 0),
            stats,
            certificates: Vec::new(),
        };
    }

    let sample_probability = if n <= 1 {
        1.0
    } else {
        (n as f64).powf(-1.0 / f64::from(k))
    };

    // cluster[v] = Some(center) when v currently belongs to the cluster
    // centred at `center`; None when v has fallen out of the clustering.
    let mut cluster: Vec<Option<VertexId>> = (0..n).map(|v| Some(VertexId::new(v))).collect();
    // Edges still under consideration (not yet discarded by the algorithm).
    let mut alive: Vec<bool> = vec![true; graph.edge_count()];

    for _phase in 1..k {
        // 1. Sample the surviving clusters.
        let mut sampled: BTreeMap<VertexId, bool> = BTreeMap::new();
        for center in cluster.iter().flatten() {
            sampled
                .entry(*center)
                .or_insert_with(|| rng.gen_bool(sample_probability));
        }
        let is_sampled = |c: VertexId| -> bool { *sampled.get(&c).unwrap_or(&false) };

        let mut next_cluster: Vec<Option<VertexId>> = vec![None; n];
        for v in 0..n {
            if let Some(c) = cluster[v] {
                if is_sampled(c) {
                    next_cluster[v] = Some(c);
                }
            }
        }

        // 2. Re-home every vertex whose cluster was not sampled.
        for v_idx in 0..n {
            let v = VertexId::new(v_idx);
            let Some(cv) = cluster[v_idx] else { continue };
            if is_sampled(cv) {
                continue;
            }
            // Lightest alive edge from v to each adjacent cluster.
            let best = lightest_edges_by_cluster(graph, &cluster, &alive, v, cv);
            if best.is_empty() {
                continue;
            }
            let best_sampled = best
                .iter()
                .filter(|(c, _)| is_sampled(**c))
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.cmp(&b.1 .1)));
            match best_sampled {
                None => {
                    // No adjacent sampled cluster: connect to every adjacent
                    // cluster with its lightest edge and drop out.
                    for (_, e) in best.values() {
                        insert_edge(&mut spanner, graph, *e);
                    }
                    discard_edges_to_clusters(graph, &cluster, &mut alive, v, |_| true);
                }
                Some((&home, &(home_weight, home_edge))) => {
                    insert_edge(&mut spanner, graph, home_edge);
                    next_cluster[v_idx] = Some(home);
                    // Also connect to every strictly closer cluster, and
                    // discard the edges into those clusters and the new home.
                    for (c, (w, e)) in &best {
                        if *c != home && *w < home_weight {
                            insert_edge(&mut spanner, graph, *e);
                        }
                    }
                    discard_edges_to_clusters(graph, &cluster, &mut alive, v, |c| {
                        c == home || best.get(&c).is_some_and(|(w, _)| *w < home_weight)
                    });
                }
            }
        }

        cluster = next_cluster;

        // 3. Intra-cluster edges never need to be considered again.
        for (e_idx, alive_slot) in alive.iter_mut().enumerate() {
            if !*alive_slot {
                continue;
            }
            let (a, b) = graph.edge(EdgeId::new(e_idx)).endpoints();
            if let (Some(ca), Some(cb)) = (cluster[a.index()], cluster[b.index()]) {
                if ca == cb {
                    *alive_slot = false;
                }
            }
        }
    }

    // Phase 2: every vertex joins each adjacent surviving cluster with its
    // lightest remaining edge.
    for v_idx in 0..n {
        let v = VertexId::new(v_idx);
        let own = cluster[v_idx];
        let mut best: BTreeMap<VertexId, (f64, EdgeId)> = BTreeMap::new();
        for (w, e) in graph.neighbors(v) {
            if !alive[e.index()] {
                continue;
            }
            let Some(cw) = cluster[w.index()] else {
                continue;
            };
            if Some(cw) == own {
                continue;
            }
            let weight = graph.weight(e);
            let entry = best.entry(cw).or_insert((weight, e));
            if weight < entry.0 || (weight == entry.0 && e < entry.1) {
                *entry = (weight, e);
            }
        }
        for (_, (_, e)) in best {
            insert_edge(&mut spanner, graph, e);
        }
    }

    stats.spanner_edges = spanner.edge_count();
    stats.elapsed = start.elapsed();
    SpannerResult {
        spanner,
        params: SpannerParams::vertex(k, 0),
        stats,
        certificates: Vec::new(),
    }
}

/// Lightest alive edge from `v` to each adjacent cluster other than its own.
fn lightest_edges_by_cluster(
    graph: &Graph,
    cluster: &[Option<VertexId>],
    alive: &[bool],
    v: VertexId,
    own: VertexId,
) -> BTreeMap<VertexId, (f64, EdgeId)> {
    let mut best: BTreeMap<VertexId, (f64, EdgeId)> = BTreeMap::new();
    for (w, e) in graph.neighbors(v) {
        if !alive[e.index()] {
            continue;
        }
        let Some(cw) = cluster[w.index()] else {
            continue;
        };
        if cw == own {
            continue;
        }
        let weight = graph.weight(e);
        let entry = best.entry(cw).or_insert((weight, e));
        if weight < entry.0 || (weight == entry.0 && e < entry.1) {
            *entry = (weight, e);
        }
    }
    best
}

/// Discards every alive edge from `v` into a cluster selected by `select`.
fn discard_edges_to_clusters<F: Fn(VertexId) -> bool>(
    graph: &Graph,
    cluster: &[Option<VertexId>],
    alive: &mut [bool],
    v: VertexId,
    select: F,
) {
    for (w, e) in graph.neighbors(v) {
        if !alive[e.index()] {
            continue;
        }
        if let Some(cw) = cluster[w.index()] {
            if select(cw) {
                alive[e.index()] = false;
            }
        }
    }
}

fn insert_edge(spanner: &mut Graph, graph: &Graph, e: EdgeId) {
    let edge = graph.edge(e);
    let (u, v) = edge.endpoints();
    if spanner.edge_between(u, v).is_none() {
        spanner.add_edge(u.index(), v.index(), edge.weight());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::verify::{verify_spanner, VerificationMode};
    use ftspan_graph::generators;
    use ftspan_graph::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_a_valid_spanner_on_unweighted_graphs() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(25, 0.3, &mut rng);
            let result = baswana_sen_spanner(&g, 2, &mut rng);
            let report = verify_spanner(
                &g,
                &result.spanner,
                SpannerParams::vertex(2, 0),
                VerificationMode::Exhaustive,
            );
            assert!(report.is_valid(), "seed {seed}: {:?}", report.violations);
        }
    }

    #[test]
    fn output_is_a_valid_spanner_on_weighted_graphs() {
        let mut rng = StdRng::seed_from_u64(30);
        let base = generators::connected_gnp(20, 0.4, &mut rng);
        let g = generators::with_random_weights(&base, 1.0, 9.0, &mut rng);
        for k in [2u32, 3] {
            let result = baswana_sen_spanner(&g, k, &mut rng);
            let report = verify_spanner(
                &g,
                &result.spanner,
                SpannerParams::vertex(k, 0),
                VerificationMode::Exhaustive,
            );
            assert!(report.is_valid(), "k = {k}: {:?}", report.violations);
        }
    }

    #[test]
    fn connected_input_gives_connected_output() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::connected_gnp(50, 0.15, &mut rng);
        let result = baswana_sen_spanner(&g, 3, &mut rng);
        assert!(is_connected(&result.spanner));
    }

    #[test]
    fn size_is_in_the_ballpark_of_the_expected_bound() {
        let mut rng = StdRng::seed_from_u64(32);
        let g = generators::complete(80);
        let result = baswana_sen_spanner(&g, 2, &mut rng);
        // Expected O(k n^{1+1/k}); allow a factor of 4 for variance with this
        // fixed seed. K_80 has 3160 edges so this is still a real reduction.
        let bound = 4.0 * bounds::baswana_sen_size_bound(80, 2);
        assert!((result.spanner.edge_count() as f64) < bound);
        assert!(result.spanner.edge_count() < g.edge_count());
    }

    #[test]
    fn k_equal_one_returns_the_whole_graph() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::complete(10);
        let result = baswana_sen_spanner(&g, 1, &mut rng);
        assert_eq!(result.spanner.edge_count(), g.edge_count());
    }

    #[test]
    fn spanner_is_a_subgraph_preserving_weights() {
        let mut rng = StdRng::seed_from_u64(34);
        let base = generators::connected_gnp(30, 0.3, &mut rng);
        let g = generators::with_random_weights(&base, 1.0, 3.0, &mut rng);
        let result = baswana_sen_spanner(&g, 2, &mut rng);
        assert!(result.spanner.is_edge_subgraph_of(&g));
        for (_, e) in result.spanner.edges() {
            let orig = g.edge_between(e.source(), e.target()).unwrap();
            assert_eq!(g.weight(orig), e.weight());
        }
    }

    #[test]
    fn handles_disconnected_and_tiny_inputs() {
        let mut rng = StdRng::seed_from_u64(35);
        let g = Graph::new(0);
        assert_eq!(baswana_sen_spanner(&g, 2, &mut rng).spanner.edge_count(), 0);
        let g = Graph::new(5);
        assert_eq!(baswana_sen_spanner(&g, 2, &mut rng).spanner.edge_count(), 0);
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let result = baswana_sen_spanner(&g, 2, &mut rng);
        // Both components must be spanned (here: both edges kept).
        assert_eq!(result.spanner.edge_count(), 2);
    }

    #[test]
    fn stats_record_algorithm_name_and_sizes() {
        let mut rng = StdRng::seed_from_u64(36);
        let g = generators::complete(20);
        let result = baswana_sen_spanner(&g, 2, &mut rng);
        assert_eq!(result.stats.algorithm, "baswana-sen");
        assert_eq!(result.stats.input_edges, 190);
        assert_eq!(result.stats.spanner_edges, result.spanner.edge_count());
    }
}
