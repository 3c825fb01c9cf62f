//! The Dinitz–Krauthgamer \[DK11\] black-box fault-tolerant spanner framework
//! (Theorem 13 of the paper).
//!
//! Given any algorithm `A` that builds a `(2k − 1)`-spanner with `g(n)` edges,
//! the framework runs `O(f³ log n)` independent iterations; in each iteration
//! every vertex participates independently with probability `≈ 1/f`, `A` is
//! run on the induced subgraph of the participants, and the union of all the
//! per-iteration spanners is returned. For any fault set `F` of size at most
//! `f` and any surviving edge `{u, v}`, with high probability some iteration
//! contains both `u` and `v` but no vertex of `F`, and that iteration's
//! spanner certifies the stretch bound.
//!
//! With `g(n) = O(n^{1+1/k})` the output has `O(f^{2−1/k} · n^{1+1/k} · log n)`
//! edges — a worse dependence on `f` than the paper's greedy (the point of
//! experiment E3/E7) — but the framework is trivially parallel, which is why
//! Section 5.2 uses it for the CONGEST construction.

use std::time::Instant;

use ftspan_graph::{Graph, VertexId};
use rand::Rng;

use crate::baswana_sen::baswana_sen_spanner;
use crate::nonft::greedy_spanner;
use crate::stats::{SpannerResult, SpannerStats};
use crate::SpannerParams;

/// Tuning knobs for the Dinitz–Krauthgamer construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DkOptions {
    /// Per-iteration participation probability. `None` uses the paper's
    /// `1/f`, except that `f = 1` (where `1/f = 1` would never exclude the
    /// faulty vertex) falls back to `1/2`.
    pub participation_probability: Option<f64>,
    /// The construction repeats until the union bound over all
    /// `m · n^f` (pair, fault-set) combinations leaves failure probability at
    /// most `n^{-failure_exponent}`. Larger values mean more iterations and a
    /// larger (but safer) spanner. Asymptotically the iteration count is the
    /// paper's `O(f³ log n)`.
    pub failure_exponent: f64,
    /// Hard cap on the number of iterations, as a safety valve.
    pub max_iterations: usize,
}

impl Default for DkOptions {
    fn default() -> Self {
        Self {
            participation_probability: None,
            failure_exponent: 1.0,
            max_iterations: 100_000,
        }
    }
}

/// Computes the number of iterations needed so that, by a union bound over at
/// most `m · n^f` (edge, fault set) pairs, every pair is covered by some
/// iteration with probability at least `1 − n^{−c}`.
#[must_use]
pub fn dk_iteration_count(n: usize, m: usize, f: u32, options: &DkOptions) -> usize {
    if n < 2 {
        return 1;
    }
    let p = participation_probability(f, options);
    let f_f = f64::from(f);
    // Probability that a fixed iteration contains both endpoints and misses
    // every one of the f faults.
    let per_iteration = p * p * (1.0 - p).powf(f_f);
    if per_iteration <= 0.0 {
        return options.max_iterations;
    }
    let n_f = n as f64;
    let ln_combos = (m.max(1) as f64).ln() + f_f * n_f.ln() + options.failure_exponent * n_f.ln();
    let needed = (ln_combos / per_iteration).ceil() as usize;
    needed.clamp(1, options.max_iterations)
}

fn participation_probability(f: u32, options: &DkOptions) -> f64 {
    options
        .participation_probability
        .unwrap_or(if f <= 1 { 0.5 } else { 1.0 / f64::from(f) })
}

/// Runs the Dinitz–Krauthgamer framework with an arbitrary inner spanner
/// algorithm.
///
/// `inner` receives the induced subgraph of one iteration's participants and
/// must return a `(2k − 1)`-spanner of it **on the same (re-indexed) vertex
/// set**; the framework maps its edges back to the original identifiers.
///
/// # Panics
///
/// Panics if `k == 0` or the inner algorithm returns a graph with a different
/// vertex count than its input.
#[must_use]
pub fn dk_spanner_with<R, S>(
    graph: &Graph,
    k: u32,
    f: u32,
    options: &DkOptions,
    mut inner: S,
    rng: &mut R,
) -> SpannerResult
where
    R: Rng + ?Sized,
    S: FnMut(&Graph, u32, &mut R) -> Graph,
{
    assert!(k >= 1, "stretch parameter k must be at least 1");
    let start = Instant::now();
    let n = graph.vertex_count();
    let m = graph.edge_count();
    let p = participation_probability(f, options);
    let iterations = dk_iteration_count(n, m, f, options);

    let mut spanner = Graph::empty_like(graph);
    let mut stats = SpannerStats {
        algorithm: "dinitz-krauthgamer",
        input_vertices: n,
        input_edges: m,
        ..SpannerStats::default()
    };

    if f == 0 {
        // Degenerate case: one iteration over the whole graph.
        let sub_spanner = inner(graph, k, rng);
        assert_eq!(
            sub_spanner.vertex_count(),
            n,
            "inner spanner changed the vertex set"
        );
        spanner.union_edges_from(&sub_spanner);
    } else {
        for _ in 0..iterations {
            let participants: Vec<VertexId> =
                graph.vertices().filter(|_| rng.gen_bool(p)).collect();
            if participants.len() < 2 {
                continue;
            }
            let (induced, original_ids) = graph.induced_subgraph(&participants);
            if induced.edge_count() == 0 {
                continue;
            }
            let sub_spanner = inner(&induced, k, rng);
            assert_eq!(
                sub_spanner.vertex_count(),
                induced.vertex_count(),
                "inner spanner changed the vertex set"
            );
            for (_, edge) in sub_spanner.edges() {
                let (a, b) = edge.endpoints();
                let (u, v) = (original_ids[a.index()], original_ids[b.index()]);
                if spanner.edge_between(u, v).is_none() {
                    spanner.add_edge(u.index(), v.index(), edge.weight());
                }
            }
        }
    }

    stats.spanner_edges = spanner.edge_count();
    stats.elapsed = start.elapsed();
    SpannerResult {
        spanner,
        params: SpannerParams::vertex(k, f),
        stats,
        certificates: Vec::new(),
    }
}

/// Dinitz–Krauthgamer instantiated with the deterministic greedy
/// `(2k − 1)`-spanner of [ADD+93] as the inner algorithm (the natural
/// centralized choice, `g(n) = O(n^{1+1/k})`).
#[must_use]
pub fn dk_spanner<R: Rng + ?Sized>(graph: &Graph, k: u32, f: u32, rng: &mut R) -> SpannerResult {
    dk_spanner_with(
        graph,
        k,
        f,
        &DkOptions::default(),
        |g, k, _| greedy_spanner(g, k).spanner,
        rng,
    )
}

/// Dinitz–Krauthgamer instantiated with Baswana–Sen as the inner algorithm —
/// exactly the combination the paper uses in CONGEST (Theorem 15), here in
/// centralized form for comparison.
#[must_use]
pub fn dk_spanner_baswana_sen<R: Rng + ?Sized>(
    graph: &Graph,
    k: u32,
    f: u32,
    rng: &mut R,
) -> SpannerResult {
    let mut result = dk_spanner_with(
        graph,
        k,
        f,
        &DkOptions::default(),
        |g, k, rng| baswana_sen_spanner(g, k, rng).spanner,
        rng,
    );
    result.stats.algorithm = "dinitz-krauthgamer/baswana-sen";
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::verify::{verify_spanner, VerificationMode};
    use ftspan_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn iteration_count_grows_with_f_and_n() {
        let options = DkOptions::default();
        let base = dk_iteration_count(100, 500, 1, &options);
        assert!(dk_iteration_count(100, 500, 3, &options) > base);
        assert!(dk_iteration_count(1000, 500, 1, &options) > base);
        assert_eq!(dk_iteration_count(1, 0, 2, &options), 1);
    }

    #[test]
    fn zero_probability_hits_the_iteration_cap() {
        let options = DkOptions {
            participation_probability: Some(0.0),
            max_iterations: 77,
            ..DkOptions::default()
        };
        assert_eq!(dk_iteration_count(50, 100, 2, &options), 77);
    }

    #[test]
    fn output_is_a_valid_fault_tolerant_spanner() {
        let mut rng = StdRng::seed_from_u64(40);
        let g = generators::connected_gnp(14, 0.4, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let result = dk_spanner(&g, 2, 1, &mut rng);
        let report = verify_spanner(&g, &result.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn baswana_sen_instantiation_is_also_valid() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::connected_gnp(13, 0.4, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let result = dk_spanner_baswana_sen(&g, 2, 1, &mut rng);
        let report = verify_spanner(&g, &result.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
        assert_eq!(result.stats.algorithm, "dinitz-krauthgamer/baswana-sen");
    }

    #[test]
    fn f_zero_degenerates_to_a_single_inner_run() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = generators::complete(20);
        let result = dk_spanner(&g, 2, 0, &mut rng);
        let direct = greedy_spanner(&g, 2);
        assert_eq!(result.spanner.edge_count(), direct.spanner.edge_count());
    }

    #[test]
    fn size_stays_within_the_dk_reference_curve() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = generators::connected_gnp(40, 0.5, &mut rng);
        let result = dk_spanner(&g, 2, 2, &mut rng);
        // Theorem 13 reference curve with a generous constant (the union of
        // many iterations can never exceed m anyway).
        let bound = (10.0 * bounds::dk_size_bound(40, 2, 2)).min(g.edge_count() as f64);
        assert!((result.spanner.edge_count() as f64) <= bound);
    }

    #[test]
    fn dk_is_denser_than_the_modified_greedy_for_larger_f() {
        // The headline comparison of experiment E3: the f-dependence of DK11
        // (f^{2-1/k}) is worse than the modified greedy's (f^{1-1/k}).
        let mut rng = StdRng::seed_from_u64(44);
        let g = generators::connected_gnp(40, 0.6, &mut rng);
        let dk = dk_spanner(&g, 2, 3, &mut rng);
        let greedy = crate::poly_greedy_spanner(&g, SpannerParams::vertex(2, 3));
        assert!(dk.spanner.edge_count() >= greedy.spanner.edge_count());
    }

    #[test]
    fn custom_participation_probability_is_respected() {
        let mut rng = StdRng::seed_from_u64(45);
        let g = generators::complete(12);
        let options = DkOptions {
            participation_probability: Some(1.0),
            failure_exponent: 0.5,
            max_iterations: 3,
        };
        // With p = 1 every vertex participates each iteration, so the union
        // equals the inner spanner of the full graph.
        let result = dk_spanner_with(
            &g,
            2,
            2,
            &options,
            |g, k, _| greedy_spanner(g, k).spanner,
            &mut rng,
        );
        let direct = greedy_spanner(&g, 2);
        assert_eq!(result.spanner.edge_count(), direct.spanner.edge_count());
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let mut rng = StdRng::seed_from_u64(46);
        for n in 0..4usize {
            let g = Graph::new(n);
            let r = dk_spanner(&g, 2, 1, &mut rng);
            assert_eq!(r.spanner.vertex_count(), n);
            assert_eq!(r.spanner.edge_count(), 0);
        }
    }
}
