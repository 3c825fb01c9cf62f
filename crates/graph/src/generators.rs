//! Random and structured graph generators used by tests, examples, and the
//! experiment harness.
//!
//! Every randomized generator takes an explicit `&mut impl Rng` so that
//! experiments are reproducible from a seed. The workloads mirror the graph
//! families usually used to evaluate spanner constructions: Erdős–Rényi,
//! random geometric (the classical motivation for fault-tolerant spanners),
//! preferential attachment, small-world rings, grids, and hypercubes.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::Graph;

/// Above this vertex count, [`gnp`] switches from the classical per-pair
/// Bernoulli loop to geometric skip sampling. The two paths draw from the RNG
/// differently, so the seeds pinned by existing differential suites (all of
/// which use `n ≤ 200`) keep their byte-identical output, while sparse
/// million-node inputs become `O(n + m)` instead of `O(n²)`.
const GNP_SKIP_THRESHOLD: usize = 2048;

/// Erdős–Rényi `G(n, p)`: each of the `n·(n−1)/2` possible edges is present
/// independently with probability `p`, with unit weights.
///
/// For `n ≤ 2048` this draws one Bernoulli variable per pair (the historical
/// behavior, preserved bit-for-bit for pinned seeds). Larger graphs use
/// geometric skip sampling over the linearized pair index — expected
/// `O(n + p·n²)` work and RNG draws — which is what makes the 10⁵–10⁶-node
/// scale tier feasible.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
#[must_use]
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut g = Graph::new(n);
    if p == 0.0 || n < 2 {
        return g;
    }
    if n <= GNP_SKIP_THRESHOLD {
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_unit_edge(u, v);
                }
            }
        }
    } else {
        gnp_skip_sample(n, p, &mut g, rng);
    }
    g
}

/// Geometric skip sampling for sparse `G(n, p)`: instead of flipping a coin
/// per pair, jump directly to the next successful pair. The gap between
/// successes in a Bernoulli(p) sequence is geometric, so
/// `skip = ⌊ln(U) / ln(1 − p)⌋` with `U ~ Uniform[0, 1)` lands on the next
/// edge; total work is `O(n + m)`.
fn gnp_skip_sample<R: Rng + ?Sized>(n: usize, p: f64, g: &mut Graph, rng: &mut R) {
    let max_pairs = (n as u64) * (n as u64 - 1) / 2;
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_unit_edge(u, v);
            }
        }
        return;
    }
    let ln_q = (1.0 - p).ln();
    // `idx` walks the linearized upper-triangle pair index; row `u` owns the
    // `n − 1 − u` consecutive indices starting at `row_start`.
    let mut idx: u64 = 0;
    let mut u = 0usize;
    let mut row_start: u64 = 0;
    let mut row_len: u64 = (n - 1) as u64;
    loop {
        let draw: f64 = rng.gen::<f64>();
        // U = 0 means an infinite skip (ln 0 = −∞); compare in f64 before
        // casting so the infinity never truncates into a bogus index.
        let skip = if draw > 0.0 {
            (draw.ln() / ln_q).floor()
        } else {
            f64::INFINITY
        };
        if skip >= (max_pairs - idx) as f64 {
            break;
        }
        idx += skip as u64;
        while idx >= row_start + row_len {
            row_start += row_len;
            row_len -= 1;
            u += 1;
        }
        let v = u + 1 + (idx - row_start) as usize;
        g.add_unit_edge(u, v);
        idx += 1;
        if idx >= max_pairs {
            break;
        }
    }
}

/// `G(n, p)` conditioned on connectivity by overlaying a uniformly random
/// spanning tree (unit weights). The result always has at least `n − 1` edges.
#[must_use]
pub fn connected_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = gnp(n, p, rng);
    overlay_random_spanning_tree(&mut g, rng);
    g
}

/// Adds a uniformly random spanning tree (random permutation + random parent)
/// on top of an existing graph so that it becomes connected. Existing edges
/// are kept; duplicates are skipped.
pub fn overlay_random_spanning_tree<R: Rng + ?Sized>(g: &mut Graph, rng: &mut R) {
    let n = g.vertex_count();
    if n < 2 {
        return;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let child = order[i];
        let parent = order[rng.gen_range(0..i)];
        if !g.has_edge_between(child, parent) {
            g.add_unit_edge(child, parent);
        }
    }
}

/// The complete graph `K_n` with unit weights.
#[must_use]
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_unit_edge(u, v);
        }
    }
    g
}

/// A simple path `0 − 1 − ⋯ − (n−1)` with unit weights.
#[must_use]
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_unit_edge(i - 1, i);
    }
    g
}

/// A cycle on `n ≥ 3` vertices with unit weights.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a simple cycle needs at least 3 vertices");
    let mut g = path(n);
    g.add_unit_edge(n - 1, 0);
    g
}

/// A star with `n − 1` leaves attached to vertex 0 (unit weights).
#[must_use]
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_unit_edge(0, i);
    }
    g
}

/// A `rows × cols` grid graph with unit weights; vertex `(r, c)` has index
/// `r * cols + c`.
#[must_use]
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                g.add_unit_edge(i, i + 1);
            }
            if r + 1 < rows {
                g.add_unit_edge(i, i + cols);
            }
        }
    }
    g
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` vertices (unit weights).
///
/// # Panics
///
/// Panics if `d > 20` (more than a million vertices), which is outside the
/// intended scale of this crate's experiments.
#[must_use]
pub fn hypercube(d: u32) -> Graph {
    assert!(d <= 20, "hypercube dimension too large");
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1usize << bit);
            if u > v {
                g.add_unit_edge(v, u);
            }
        }
    }
    g
}

/// Random geometric graph: `n` points placed uniformly in the unit square,
/// connected when their Euclidean distance is at most `radius`, with the edge
/// weight equal to that distance.
///
/// This is the natural weighted workload for fault-tolerant spanners, since
/// geometric spanners are where the notion was introduced.
/// The implementation uses a spatial-grid bucket index (cell width ≥ radius,
/// so every edge endpoint pair shares a 3×3 cell neighborhood), replacing the
/// historical all-pairs loop. RNG consumption (the `2n` coordinate draws) and
/// edge emission order (`u` ascending, then `v` ascending) are identical to
/// the all-pairs loop, so output is **byte-identical for every seed** while
/// expected work drops to `O(n + m)` on bounded-density inputs.
#[must_use]
pub fn random_geometric<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut g = Graph::new(n);
    if n < 2 {
        return g;
    }
    let r2 = radius * radius;
    // Cell width must stay ≥ radius (3×3 sufficiency); more cells than ~√n
    // buys nothing and costs memory, so clamp.
    let per_axis = if radius > 0.0 {
        let by_radius = (1.0 / radius).floor().max(1.0) as usize;
        let by_points = (n as f64).sqrt() as usize + 1;
        by_radius.min(by_points).max(1)
    } else {
        1
    };
    let cell_xy = |x: f64, y: f64| -> (usize, usize) {
        let cx = ((x * per_axis as f64) as usize).min(per_axis - 1);
        let cy = ((y * per_axis as f64) as usize).min(per_axis - 1);
        (cx, cy)
    };
    // Counting-sort points into a CSR bucket layout over the grid cells.
    let cells = per_axis * per_axis;
    let mut starts = vec![0u32; cells + 1];
    for &(x, y) in &points {
        let (cx, cy) = cell_xy(x, y);
        starts[cy * per_axis + cx + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut bucket = vec![0u32; n];
    let mut cursor = starts.clone();
    for (i, &(x, y)) in points.iter().enumerate() {
        let (cx, cy) = cell_xy(x, y);
        let c = cy * per_axis + cx;
        bucket[cursor[c] as usize] = u32::try_from(i).expect("point index exceeds u32::MAX");
        cursor[c] += 1;
    }
    let mut candidates: Vec<(usize, f64)> = Vec::new();
    for u in 0..n {
        let (x, y) = points[u];
        let (cx, cy) = cell_xy(x, y);
        candidates.clear();
        for ny in cy.saturating_sub(1)..=(cy + 1).min(per_axis - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(per_axis - 1) {
                let c = ny * per_axis + nx;
                for &w in &bucket[starts[c] as usize..starts[c + 1] as usize] {
                    let v = w as usize;
                    if v <= u {
                        continue;
                    }
                    let dx = points[u].0 - points[v].0;
                    let dy = points[u].1 - points[v].1;
                    let d2 = dx * dx + dy * dy;
                    if d2 <= r2 {
                        candidates.push((v, d2));
                    }
                }
            }
        }
        // Emit in ascending-v order, matching the all-pairs inner loop.
        candidates.sort_unstable_by_key(|&(v, _)| v);
        for &(v, d2) in candidates.iter() {
            g.add_edge(u, v, d2.sqrt().max(f64::MIN_POSITIVE));
        }
    }
    g
}

/// Barabási–Albert preferential attachment: starts from a small clique of
/// `attach` vertices and attaches each new vertex to `attach` distinct
/// existing vertices chosen proportionally to degree (unit weights).
///
/// # Panics
///
/// Panics if `attach == 0` or `attach >= n`.
#[must_use]
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, attach: usize, rng: &mut R) -> Graph {
    assert!(attach >= 1, "attachment parameter must be at least 1");
    assert!(attach < n, "attachment parameter must be smaller than n");
    let mut g = Graph::new(n);
    // Seed clique.
    for u in 0..attach {
        for v in (u + 1)..attach {
            g.add_unit_edge(u, v);
        }
    }
    // Endpoint multiset for degree-proportional sampling.
    let mut endpoints: Vec<usize> = Vec::new();
    for (_, e) in g.edges() {
        endpoints.push(e.source().index());
        endpoints.push(e.target().index());
    }
    if endpoints.is_empty() {
        // attach == 1: seed "clique" has no edges, sample uniformly instead.
        endpoints.push(0);
    }
    for v in attach.max(1)..n {
        let mut chosen = Vec::with_capacity(attach);
        let mut guard = 0;
        while chosen.len() < attach && guard < 100 * attach {
            guard += 1;
            let &candidate = endpoints
                .get(rng.gen_range(0..endpoints.len()))
                .expect("endpoint multiset is non-empty");
            if candidate != v && !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        // Fall back to uniform choices if the multiset was too concentrated.
        let mut fallback = 0usize;
        while chosen.len() < attach {
            if fallback != v && !chosen.contains(&fallback) {
                chosen.push(fallback);
            }
            fallback += 1;
        }
        for &u in &chosen {
            g.add_unit_edge(v, u);
            endpoints.push(v);
            endpoints.push(u);
        }
    }
    g
}

/// Watts–Strogatz small-world ring: each vertex is connected to its `k`
/// nearest neighbours on a ring (k must be even), then each edge is rewired to
/// a random endpoint with probability `beta` (unit weights).
///
/// # Panics
///
/// Panics if `k` is odd, `k >= n`, or `beta` is outside `[0, 1]`.
#[must_use]
pub fn watts_strogatz<R: Rng + ?Sized>(n: usize, k: usize, beta: f64, rng: &mut R) -> Graph {
    assert!(k.is_multiple_of(2), "ring degree k must be even");
    assert!(k < n, "ring degree k must be smaller than n");
    assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");
    let mut g = Graph::new(n);
    for v in 0..n {
        for step in 1..=(k / 2) {
            let u = (v + step) % n;
            let (a, b) = if rng.gen_bool(beta) {
                // Rewire: pick a random non-neighbour target.
                let mut w = rng.gen_range(0..n);
                let mut guard = 0;
                while (w == v || g.has_edge_between(v, w)) && guard < 4 * n {
                    w = rng.gen_range(0..n);
                    guard += 1;
                }
                if w == v || g.has_edge_between(v, w) {
                    (v, u)
                } else {
                    (v, w)
                }
            } else {
                (v, u)
            };
            if a != b && !g.has_edge_between(a, b) {
                g.add_unit_edge(a, b);
            }
        }
    }
    g
}

/// A ring of `cliques` cliques of size `clique_size` each, with consecutive
/// cliques joined by a single bridge edge (unit weights). This family has
/// many small cuts and is a stress test for fault tolerance: removing a
/// bridge endpoint separates the ring locally.
///
/// # Panics
///
/// Panics if `cliques < 3` or `clique_size < 1`.
#[must_use]
pub fn ring_of_cliques(cliques: usize, clique_size: usize) -> Graph {
    assert!(cliques >= 3, "need at least three cliques to form a ring");
    assert!(clique_size >= 1, "cliques must be non-empty");
    let n = cliques * clique_size;
    let mut g = Graph::new(n);
    for c in 0..cliques {
        let base = c * clique_size;
        for i in 0..clique_size {
            for j in (i + 1)..clique_size {
                g.add_unit_edge(base + i, base + j);
            }
        }
        // Bridge from the last vertex of this clique to the first of the next.
        let next_base = ((c + 1) % cliques) * clique_size;
        let from = base + clique_size - 1;
        let to = next_base;
        if !g.has_edge_between(from, to) {
            g.add_unit_edge(from, to);
        }
    }
    g
}

/// A uniformly random labelled tree on `n` vertices (via random attachment to
/// a random earlier vertex), plus `chords` extra uniformly random non-tree
/// edges, all unit weight.
#[must_use]
pub fn random_tree_with_chords<R: Rng + ?Sized>(n: usize, chords: usize, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    overlay_random_spanning_tree(&mut g, rng);
    let max_extra = n.saturating_mul(n.saturating_sub(1)) / 2 - g.edge_count();
    let chords = chords.min(max_extra);
    let mut added = 0;
    let mut guard = 0;
    while added < chords && guard < 100 * (chords + 1) {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !g.has_edge_between(u, v) {
            g.add_unit_edge(u, v);
            added += 1;
        }
    }
    g
}

/// Returns a copy of `g` with every edge weight replaced by an independent
/// uniform draw from `[lo, hi)`. Useful for turning any unit-weighted
/// generator output into a weighted workload.
///
/// # Panics
///
/// Panics if `lo` is negative or `lo >= hi`.
#[must_use]
pub fn with_random_weights<R: Rng + ?Sized>(g: &Graph, lo: f64, hi: f64, rng: &mut R) -> Graph {
    assert!(
        lo >= 0.0 && lo < hi,
        "weight range must satisfy 0 <= lo < hi"
    );
    let mut out = Graph::with_capacity(g.vertex_count(), g.edge_count());
    for (_, e) in g.edges() {
        let (u, v) = e.endpoints();
        out.add_edge(u.index(), v.index(), rng.gen_range(lo..hi));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn gnp_extremes() {
        let mut r = rng(1);
        let empty = gnp(10, 0.0, &mut r);
        assert_eq!(empty.edge_count(), 0);
        let full = gnp(10, 1.0, &mut r);
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn gnp_density_is_roughly_p() {
        let mut r = rng(2);
        let g = gnp(200, 0.1, &mut r);
        let possible = 200.0 * 199.0 / 2.0;
        let density = g.edge_count() as f64 / possible;
        assert!(
            (density - 0.1).abs() < 0.02,
            "density {density} too far from 0.1"
        );
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut r = rng(5);
        for seed in 0..5u64 {
            let mut rr = rng(seed);
            let g = connected_gnp(60, 0.02, &mut rr);
            assert!(is_connected(&g));
        }
        let g = connected_gnp(1, 0.5, &mut r);
        assert_eq!(g.vertex_count(), 1);
    }

    #[test]
    fn complete_path_cycle_star_sizes() {
        assert_eq!(complete(6).edge_count(), 15);
        assert_eq!(path(6).edge_count(), 5);
        assert_eq!(cycle(6).edge_count(), 6);
        assert_eq!(star(6).edge_count(), 5);
        assert_eq!(path(0).vertex_count(), 0);
        assert_eq!(path(1).edge_count(), 0);
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.vertex_count(), 12);
        // Horizontal: 3 rows * 3 = 9; vertical: 2 * 4 = 8.
        assert_eq!(g.edge_count(), 17);
        assert!(is_connected(&g));
        assert!(g.has_edge_between(0, 1));
        assert!(g.has_edge_between(0, 4));
        assert!(!g.has_edge_between(3, 4)); // row wrap must not connect
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.vertex_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(g.max_degree(), 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn random_geometric_weights_match_radius() {
        let mut r = rng(6);
        let g = random_geometric(80, 0.3, &mut r);
        for (_, e) in g.edges() {
            assert!(e.weight() <= 0.3 + 1e-12);
            assert!(e.weight() > 0.0);
        }
        assert!(!g.is_unit_weighted() || g.edge_count() == 0);
    }

    #[test]
    fn barabasi_albert_edge_count_and_connectivity() {
        let mut r = rng(7);
        let g = barabasi_albert(100, 3, &mut r);
        assert_eq!(g.vertex_count(), 100);
        // Seed clique has 3 edges; each of the 97 later vertices adds 3.
        assert_eq!(g.edge_count(), 3 + 97 * 3);
        assert!(is_connected(&g));
    }

    #[test]
    fn barabasi_albert_attach_one_builds_a_tree() {
        let mut r = rng(8);
        let g = barabasi_albert(50, 1, &mut r);
        assert_eq!(g.edge_count(), 49);
        assert!(is_connected(&g));
    }

    #[test]
    fn watts_strogatz_degree_and_connectivity() {
        let mut r = rng(9);
        let g = watts_strogatz(60, 4, 0.0, &mut r);
        // beta = 0: pure ring lattice, every vertex has degree exactly 4.
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert!(is_connected(&g));
        let g = watts_strogatz(60, 4, 0.3, &mut r);
        assert!(g.edge_count() > 0);
        assert_eq!(g.vertex_count(), 60);
    }

    #[test]
    fn ring_of_cliques_structure() {
        let g = ring_of_cliques(4, 5);
        assert_eq!(g.vertex_count(), 20);
        // 4 cliques of C(5,2)=10 edges plus 4 bridges.
        assert_eq!(g.edge_count(), 44);
        assert!(is_connected(&g));
    }

    #[test]
    fn random_tree_with_chords_edge_count() {
        let mut r = rng(10);
        let g = random_tree_with_chords(40, 15, &mut r);
        assert_eq!(g.edge_count(), 39 + 15);
        assert!(is_connected(&g));
        // Zero chords gives exactly a tree.
        let t = random_tree_with_chords(40, 0, &mut rng(11));
        assert_eq!(t.edge_count(), 39);
    }

    #[test]
    fn with_random_weights_preserves_topology() {
        let mut r = rng(12);
        let g = grid(4, 4);
        let w = with_random_weights(&g, 1.0, 5.0, &mut r);
        assert_eq!(w.edge_count(), g.edge_count());
        assert_eq!(w.vertex_count(), g.vertex_count());
        for (_, e) in w.edges() {
            assert!(e.weight() >= 1.0 && e.weight() < 5.0);
            let (u, v) = e.endpoints();
            assert!(g.has_edge_between(u.index(), v.index()));
        }
        assert!(!w.is_unit_weighted());
    }

    /// The historical all-pairs geometric loop, kept as the reference the
    /// grid-indexed fast path must reproduce bit for bit.
    fn random_geometric_naive<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
        let points: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let mut g = Graph::new(n);
        let r2 = radius * radius;
        for u in 0..n {
            for v in (u + 1)..n {
                let dx = points[u].0 - points[v].0;
                let dy = points[u].1 - points[v].1;
                let d2 = dx * dx + dy * dy;
                if d2 <= r2 {
                    g.add_edge(u, v, d2.sqrt().max(f64::MIN_POSITIVE));
                }
            }
        }
        g
    }

    #[test]
    fn random_geometric_grid_matches_naive_reference_bit_for_bit() {
        for seed in [1u64, 2, 3, 6, 99] {
            for &(n, radius) in &[(60usize, 0.25f64), (120, 0.1), (40, 0.9), (25, 0.0)] {
                let fast = random_geometric(n, radius, &mut rng(seed));
                let naive = random_geometric_naive(n, radius, &mut rng(seed));
                assert_eq!(fast.edge_count(), naive.edge_count(), "n={n} r={radius}");
                for (e, edge) in naive.edges() {
                    let got = fast.edge(e);
                    assert_eq!(got.endpoints(), edge.endpoints(), "seed {seed} edge {e}");
                    assert_eq!(
                        got.weight().to_bits(),
                        edge.weight().to_bits(),
                        "seed {seed} edge {e}: weights must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn gnp_skip_sampling_is_deterministic_and_has_the_right_density() {
        let n = 4096; // above GNP_SKIP_THRESHOLD: exercises the skip path
        let p = 0.002;
        let a = gnp(n, p, &mut rng(77));
        let b = gnp(n, p, &mut rng(77));
        let edges_a: Vec<_> = a.edges().map(|(_, e)| e.endpoints()).collect();
        let edges_b: Vec<_> = b.edges().map(|(_, e)| e.endpoints()).collect();
        assert_eq!(edges_a, edges_b, "skip sampling must be seed-deterministic");
        let possible = n as f64 * (n as f64 - 1.0) / 2.0;
        let density = a.edge_count() as f64 / possible;
        assert!(
            (density - p).abs() < p * 0.1,
            "density {density} too far from {p}"
        );
        // Pairs arrive in ascending linearized order, hence simple and sorted.
        let mut prev = (0usize, 0usize);
        for (_, e) in a.edges() {
            let (u, v) = e.endpoints();
            let cur = (u.index(), v.index());
            assert!(cur > prev || a.edge_count() <= 1);
            assert!(u < v);
            prev = cur;
        }
    }

    #[test]
    fn gnp_skip_sampling_handles_extreme_probabilities() {
        let empty = gnp(3000, 0.0, &mut rng(5));
        assert_eq!(empty.edge_count(), 0);
        // Drive the sampler directly at small n so the p = 1 all-pairs branch
        // and a near-1 probability stay cheap to verify.
        let mut g = Graph::new(30);
        gnp_skip_sample(30, 1.0, &mut g, &mut rng(5));
        assert_eq!(g.edge_count(), 30 * 29 / 2);
        let mut dense = Graph::new(40);
        gnp_skip_sample(40, 0.97, &mut dense, &mut rng(5));
        let possible = 40 * 39 / 2;
        assert!(dense.edge_count() <= possible);
        assert!(dense.edge_count() > possible * 9 / 10);
    }

    #[test]
    fn generators_are_deterministic_given_a_seed() {
        let a = gnp(50, 0.2, &mut rng(42));
        let b = gnp(50, 0.2, &mut rng(42));
        assert_eq!(a.edge_count(), b.edge_count());
        let edges_a: Vec<_> = a.edges().map(|(_, e)| e.endpoints()).collect();
        let edges_b: Vec<_> = b.edges().map(|(_, e)| e.endpoints()).collect();
        assert_eq!(edges_a, edges_b);
    }
}
