//! Blocking sets (Definition 2 / Lemma 6 of the paper) — the structural
//! object behind the size analysis of the modified greedy algorithm.
//!
//! A `t`-blocking set of a graph `H` is a set `B ⊆ V × E` such that for every
//! cycle `C` of `H` with at most `t` edges there is a pair `(x, e) ∈ B` with
//! both `x` and `e` on `C` (and `x` not an endpoint of `e`). Lemma 6 shows the
//! spanner returned by the modified greedy algorithm has a `(2k)`-blocking set
//! of size at most `(2k − 1) · f · |E(H)|`, built from the LBC certificates;
//! Lemma 7 then converts that into the `O(k · f^{1−1/k} · n^{1+1/k})` size
//! bound. This module materializes the blocking set from a construction run
//! and verifies the definition on small graphs (experiment E11).

use std::collections::HashSet;

use ftspan_graph::{EdgeId, Graph, VertexId};

use crate::stats::SpannerResult;

/// A set of (vertex, edge) pairs intended to block all short cycles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockingSet {
    pairs: Vec<(VertexId, EdgeId)>,
}

impl BlockingSet {
    /// Creates a blocking set from explicit pairs.
    #[must_use]
    fn from_pairs<I: IntoIterator<Item = (VertexId, EdgeId)>>(pairs: I) -> Self {
        let mut pairs: Vec<_> = pairs.into_iter().collect();
        pairs.sort_unstable();
        pairs.dedup();
        Self { pairs }
    }

    /// Number of pairs in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if the set has no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.pairs.iter().copied()
    }
}

/// Builds the blocking set of Lemma 6 from a modified-greedy run that was
/// executed with certificate collection enabled: `B = {(x, e) : e ∈ E(H),
/// x ∈ F_e}` where `F_e` is the LBC certificate recorded when `e` was added.
///
/// Only vertex-fault certificates contribute (the lemma is stated for vertex
/// faults); edge-fault certificates are ignored.
#[must_use]
pub fn blocking_set_from_certificates(result: &SpannerResult) -> BlockingSet {
    let mut pairs = Vec::new();
    for cert in &result.certificates {
        for &x in cert.cut.vertex_faults() {
            pairs.push((x, cert.spanner_edge));
        }
    }
    BlockingSet::from_pairs(pairs)
}

/// The size bound of Lemma 6: `(2k − 1) · f · |E(H)|`.
#[must_use]
pub fn lemma6_size_bound(spanner_edges: usize, k: u32, f: u32) -> usize {
    (2 * k as usize - 1) * f as usize * spanner_edges
}

/// Enumerates every simple cycle of `graph` with at most `max_len` edges.
///
/// Each cycle is reported once, as the list of its vertices in traversal
/// order starting from its smallest vertex. Exponential in `max_len`;
/// intended for the small instances used by tests and experiment E11.
#[must_use]
fn enumerate_short_cycles(graph: &Graph, max_len: usize) -> Vec<Vec<VertexId>> {
    let mut cycles = Vec::new();
    let mut path: Vec<VertexId> = Vec::new();
    let mut on_path = vec![false; graph.vertex_count()];
    for start_idx in 0..graph.vertex_count() {
        let start = VertexId::new(start_idx);
        path.push(start);
        on_path[start_idx] = true;
        extend_cycle_search(
            graph,
            start,
            start,
            max_len,
            &mut path,
            &mut on_path,
            &mut cycles,
        );
        on_path[start_idx] = false;
        path.pop();
    }
    cycles
}

fn extend_cycle_search(
    graph: &Graph,
    start: VertexId,
    current: VertexId,
    max_len: usize,
    path: &mut Vec<VertexId>,
    on_path: &mut [bool],
    cycles: &mut Vec<Vec<VertexId>>,
) {
    if path.len() > max_len {
        return;
    }
    for (next, _) in graph.neighbors(current) {
        if next == start && path.len() >= 3 {
            // Report each cycle exactly once: smallest vertex first, and the
            // second vertex smaller than the last to fix the orientation.
            if path[1] < path[path.len() - 1] {
                cycles.push(path.clone());
            }
            continue;
        }
        // Only allow vertices larger than the start so that every cycle is
        // rooted at its minimum vertex.
        if next <= start || on_path[next.index()] {
            continue;
        }
        if path.len() == max_len {
            continue;
        }
        path.push(next);
        on_path[next.index()] = true;
        extend_cycle_search(graph, start, next, max_len, path, on_path, cycles);
        on_path[next.index()] = false;
        path.pop();
    }
}

/// Checks Definition 2 directly: every cycle of `graph` with at most
/// `cycle_bound` edges contains some pair `(x, e)` of the blocking set with
/// `x` a vertex of the cycle, `e` an edge of the cycle, and `x ∉ e`.
///
/// Returns the list of violating cycles (empty when the blocking set is
/// valid). Exponential in `cycle_bound`; use on small graphs only.
#[must_use]
pub fn blocking_violations(
    graph: &Graph,
    blocking: &BlockingSet,
    cycle_bound: usize,
) -> Vec<Vec<VertexId>> {
    let pair_set: HashSet<(VertexId, EdgeId)> = blocking.iter().collect();
    let mut violations = Vec::new();
    for cycle in enumerate_short_cycles(graph, cycle_bound) {
        let vertices: HashSet<VertexId> = cycle.iter().copied().collect();
        let mut edges = Vec::with_capacity(cycle.len());
        for i in 0..cycle.len() {
            let u = cycle[i];
            let v = cycle[(i + 1) % cycle.len()];
            let e = graph
                .edge_between(u, v)
                .expect("consecutive cycle vertices must be adjacent");
            edges.push(e);
        }
        let blocked = edges.iter().any(|&e| {
            let (a, b) = graph.edge(e).endpoints();
            vertices
                .iter()
                .any(|&x| x != a && x != b && pair_set.contains(&(x, e)))
        });
        if !blocked {
            violations.push(cycle);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_poly::{poly_greedy_spanner_with, PolyGreedyOptions};
    use crate::SpannerParams;
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cycle_enumeration_counts_known_graphs() {
        // A single 4-cycle.
        let g = generators::cycle(4);
        let cycles = enumerate_short_cycles(&g, 4);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 4);
        // K4 has 4 triangles and 3 four-cycles.
        let k4 = generators::complete(4);
        assert_eq!(enumerate_short_cycles(&k4, 3).len(), 4);
        assert_eq!(enumerate_short_cycles(&k4, 4).len(), 7);
        // A tree has no cycles.
        let t = generators::path(6);
        assert!(enumerate_short_cycles(&t, 6).is_empty());
    }

    #[test]
    fn cycle_enumeration_respects_length_bound() {
        let g = generators::cycle(6);
        assert!(enumerate_short_cycles(&g, 5).is_empty());
        assert_eq!(enumerate_short_cycles(&g, 6).len(), 1);
    }

    #[test]
    fn empty_blocking_set_is_violated_by_any_short_cycle() {
        let g = generators::cycle(4);
        let violations = blocking_violations(&g, &BlockingSet::default(), 4);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn manual_blocking_set_on_a_square() {
        let g = generators::cycle(4);
        // Pair (v2, edge {0,1}) blocks the only 4-cycle: v2 is on it and is
        // not an endpoint of {0,1}.
        let e01 = g.edge_between(vid(0), vid(1)).unwrap();
        let b = BlockingSet::from_pairs([(vid(2), e01)]);
        assert!(blocking_violations(&g, &b, 4).is_empty());
        // A pair whose vertex is an endpoint of its edge does not count.
        let b = BlockingSet::from_pairs([(vid(0), e01)]);
        assert_eq!(blocking_violations(&g, &b, 4).len(), 1);
    }

    #[test]
    fn greedy_certificates_yield_a_valid_blocking_set() {
        // Lemma 6, checked directly: the blocking set extracted from the
        // modified greedy's certificates blocks every (2k)-cycle of H.
        let mut rng = StdRng::seed_from_u64(50);
        for seed in 0..3u64 {
            let mut local = StdRng::seed_from_u64(seed + 100);
            let g = generators::connected_gnp(16, 0.35, &mut local);
            let _ = &mut rng;
            let k = 2u32;
            let f = 1u32;
            let params = SpannerParams::vertex(k, f);
            let options = PolyGreedyOptions {
                collect_certificates: true,
            };
            let result = poly_greedy_spanner_with(&g, params, &options);
            let blocking = blocking_set_from_certificates(&result);
            assert!(
                blocking.len() <= lemma6_size_bound(result.spanner.edge_count(), k, f),
                "blocking set larger than Lemma 6 allows"
            );
            let violations = blocking_violations(&result.spanner, &blocking, 2 * k as usize);
            assert!(
                violations.is_empty(),
                "seed {seed}: cycles not blocked: {violations:?}"
            );
        }
    }

    #[test]
    fn blocking_set_dedups_pairs() {
        let e = EdgeId::new(0);
        let b = BlockingSet::from_pairs([(vid(1), e), (vid(1), e), (vid(2), e)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.iter().count(), 2);
    }

    #[test]
    fn lemma6_bound_formula() {
        assert_eq!(lemma6_size_bound(10, 2, 3), 3 * 3 * 10);
        assert_eq!(lemma6_size_bound(0, 5, 5), 0);
    }
}
