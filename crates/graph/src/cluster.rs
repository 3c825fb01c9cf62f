//! Exponential-shift clustering (Miller–Peng–Xu), computed sequentially.
//!
//! Every vertex `u` draws a shift `δ_u ~ Exp(β)`, and every vertex `v` joins
//! the center `u` that maximises `(δ_u − hops(u, v), −id(u))`: the largest
//! shifted value, ties to the lower center id. The clusters are connected,
//! have radius at most `max_u δ_u = O(log n / β)` with high probability, and
//! cut any fixed edge with probability `O(β)`.
//!
//! `ftspan-distributed`'s `padded_decomposition` computes the same clustering
//! as a CONGEST Bellman–Ford flood, folding `−1.0` into a value once per hop.
//! While a value stays at or above zero every fold is exact in `f64`, so the
//! flood's fixpoint is the closed form above, and [`shifted_centers`] reaches
//! it in one pass. Drawing the shifts through [`exponential_shifts`] consumes
//! an RNG exactly as the flood does, so the same seed gives the same
//! partition on both paths.

use std::collections::VecDeque;

use rand::Rng;

use crate::{Graph, VertexId};

/// The largest shift [`exponential_shifts`] draws on `n` vertices,
/// `8 ln(n + 2) / beta`: a defensive truncation, reached with probability
/// `(n + 2)^-8` per draw, so a single draw cannot make a cluster span the
/// graph. It also bounds every cluster's radius.
#[must_use]
pub fn shift_cap(n: usize, beta: f64) -> f64 {
    8.0 * ((n + 2) as f64).ln() / beta
}

/// Draws one shift `δ_u ~ Exp(beta)` per vertex, in vertex order, each
/// truncated at [`shift_cap`]. Every shift is positive and finite when
/// `beta` is.
#[must_use]
pub fn exponential_shifts<R: Rng + ?Sized>(n: usize, beta: f64, rng: &mut R) -> Vec<f64> {
    let cap = shift_cap(n, beta);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            (-u.ln() / beta).min(cap)
        })
        .collect()
}

/// The cluster center of every vertex under the given shifts: the `u`
/// maximising `(shifts[u] − hops(u, v), −id(u))`, where only values that
/// stay non-negative travel. A vertex always has its own shift to fall back
/// on, so a candidate below zero could never beat it.
///
/// Runs in `O(n log n + m)`. The seeds are taken in `(shift desc, id asc)`
/// order and merged with a FIFO frontier of `(value − 1, center)` entries.
/// The frontier stays in that same order because each `−1` step is exact,
/// so every vertex is settled by the first entry that reaches it.
///
/// The result equals the CONGEST flood's fixpoint whenever every shift lies
/// in `[0, 2^53)`, which is where each `−1` step is exact. Other values give
/// a well-defined clustering that may differ from the flood's.
///
/// # Panics
///
/// Panics if `shifts.len()` is not the graph's vertex count.
#[must_use]
pub fn shifted_centers(graph: &Graph, shifts: &[f64]) -> Vec<VertexId> {
    let n = graph.vertex_count();
    assert_eq!(shifts.len(), n, "one shift per vertex");
    let mut seeds: Vec<VertexId> = (0..n).map(VertexId::new).collect();
    seeds.sort_unstable_by(|&a, &b| {
        shifts[b.index()]
            .total_cmp(&shifts[a.index()])
            .then(a.cmp(&b))
    });
    // `(value, center, vertex)`, ordered by value descending, then center
    // ascending.
    type Entry = (f64, VertexId, VertexId);
    let beats = |a: Entry, b: Entry| a.0 > b.0 || (a.0 == b.0 && a.1 < b.1);
    let mut center: Vec<Option<VertexId>> = vec![None; n];
    let mut frontier: VecDeque<Entry> = VecDeque::new();
    let mut seeds = seeds.into_iter().peekable();
    let mut settled = 0;
    while settled < n {
        let seed = seeds.peek().map(|&s| (shifts[s.index()], s, s));
        let (value, c, v) = match (seed, frontier.front().copied()) {
            (Some(s), Some(f)) if beats(f, s) => {
                frontier.pop_front();
                f
            }
            (Some(s), _) => {
                seeds.next();
                s
            }
            (None, Some(f)) => {
                frontier.pop_front();
                f
            }
            (None, None) => break,
        };
        if center[v.index()].is_some() {
            continue;
        }
        center[v.index()] = Some(c);
        settled += 1;
        let next = value - 1.0;
        if next >= 0.0 {
            for (w, _) in graph.neighbors(v) {
                if center[w.index()].is_none() {
                    frontier.push_back((next, c, w));
                }
            }
        }
    }
    center
        .into_iter()
        .map(|c| c.expect("every vertex settles on its own seed at the latest"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, vid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shifts_are_positive_finite_and_capped() {
        let mut rng = StdRng::seed_from_u64(1);
        let shifts = exponential_shifts(500, 0.25, &mut rng);
        assert_eq!(shifts.len(), 500);
        assert!(shifts.iter().all(|&s| s > 0.0 && s <= shift_cap(500, 0.25)));
    }

    #[test]
    fn center_maximises_shift_minus_hops_with_low_id_ties() {
        // Path 0 - 1 - 2 - 3 - 4.
        let g = generators::path(5);
        // Vertices 0 and 4 both reach vertex 2 at 1.0, and the tie goes to
        // the lower id; vertex 3 takes 4's 2.0 over its own 0.5.
        let centers = shifted_centers(&g, &[3.0, 0.5, 0.25, 0.5, 3.0]);
        assert_eq!(centers, [vid(0), vid(0), vid(0), vid(4), vid(4)]);
    }

    #[test]
    fn values_below_zero_never_travel() {
        // Vertex 0's 0.5 would reach vertex 1 at −0.5, below vertex 1's own
        // tiny shift, so both stay singletons.
        let g = generators::path(2);
        let centers = shifted_centers(&g, &[0.5, 1e-9]);
        assert_eq!(centers, [vid(0), vid(1)]);
    }

    #[test]
    fn matches_the_closed_form_under_heavy_ties() {
        // Small integer shifts make `δ_u − hops(u, v)` tie constantly, so
        // the id tie-break and the zero-valued entries decide most vertices.
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..40 {
            let n = 10 + round;
            let g = generators::gnp(n, 0.15, &mut rng);
            let shifts: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..4u8))).collect();
            let hops: Vec<Vec<Option<u32>>> = (0..n)
                .map(|u| crate::bfs::bfs_hop_distances(&g, vid(u)))
                .collect();
            let expected: Vec<VertexId> = (0..n)
                .map(|v| {
                    let reach = (0..n).filter_map(|u| Some((u, hops[u][v]?)));
                    let value = |(u, d): (usize, u32)| shifts[u] - f64::from(d);
                    let best = reach
                        .max_by(|&a, &b| value(a).total_cmp(&value(b)).then(b.0.cmp(&a.0)))
                        .expect("v reaches itself");
                    vid(best.0)
                })
                .collect();
            assert_eq!(shifted_centers(&g, &shifts), expected, "round {round}");
        }
    }

    #[test]
    fn every_cluster_is_connected_and_contains_its_center() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::connected_gnp(80, 0.05, &mut rng);
        let shifts = exponential_shifts(80, 0.25, &mut rng);
        let centers = shifted_centers(&g, &shifts);
        for v in 0..80 {
            let c = centers[v];
            assert_eq!(centers[c.index()], c, "a center is in its own cluster");
            if c != vid(v) {
                // Some neighbour is in the same cluster, one hop closer.
                assert!(g.neighbors(vid(v)).any(|(w, _)| centers[w.index()] == c));
            }
        }
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        assert!(shifted_centers(&Graph::new(0), &[]).is_empty());
        assert_eq!(shifted_centers(&Graph::new(1), &[0.7]), [vid(0)]);
    }

    #[test]
    #[should_panic(expected = "one shift per vertex")]
    fn shift_count_must_match_the_graph() {
        let _ = shifted_centers(&generators::path(3), &[1.0]);
    }
}
