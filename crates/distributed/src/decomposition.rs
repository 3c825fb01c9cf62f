//! Padded network decomposition (Theorem 11 of the paper).
//!
//! The LOCAL construction needs `ℓ = O(log n)` partitions of the vertex set
//! into clusters of hop diameter `O(log n)` such that, with high probability,
//! every edge is fully contained in at least one cluster over all partitions.
//! We build each partition with the exponential-shift clustering of
//! Miller–Peng–Xu \[MPX13\]: every vertex `u` draws `δ_u ~ Exp(β)` and every
//! vertex `v` joins the cluster of the vertex maximizing `δ_u − d(u, v)`.
//! Clusters are connected, have radius at most `max_u δ_u = O(log n / β)`
//! with high probability, and any fixed edge is cut with probability
//! `O(β)`, so `O(log n)` independent repetitions cover every edge whp.
//!
//! The clustering itself is computed by a genuinely distributed Bellman–Ford
//! style flood in the round engine: each vertex repeatedly forwards the best
//! `(center, shifted distance)` pair it knows, using two-word messages, until
//! no vertex improves — `O(max_u δ_u)` rounds. The flood exists to measure
//! that round cost. Its fixpoint has a closed form, and
//! [`ftspan_graph::cluster::shifted_centers`] computes the identical
//! partition sequentially from the same [`exponential_shifts`] draw; callers
//! that only need the clusters (shard planning) use that instead.

use std::collections::HashMap;

use ftspan_graph::bfs::bfs_hop_distances;
use ftspan_graph::cluster::{exponential_shifts, shift_cap};
use ftspan_graph::{Graph, VertexId};
use rand::Rng;

use crate::metrics::RoundStats;
use crate::runtime::{Model, Network, Outgoing};

/// One partition of the vertex set into low-diameter clusters.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    center_of: Vec<VertexId>,
}

impl Partition {
    /// The cluster center assigned to vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn center_of(&self, v: VertexId) -> VertexId {
        self.center_of[v.index()]
    }

    /// Returns `true` if both endpoints of the edge lie in the same cluster.
    #[must_use]
    pub fn covers_edge(&self, graph: &Graph, u: VertexId, v: VertexId) -> bool {
        let _ = graph;
        self.center_of[u.index()] == self.center_of[v.index()]
    }

    /// Groups vertices by cluster, returning `(center, members)` pairs sorted
    /// by center id.
    #[must_use]
    pub fn clusters(&self) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut groups: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for (i, &c) in self.center_of.iter().enumerate() {
            groups.entry(c).or_default().push(VertexId::new(i));
        }
        let mut out: Vec<_> = groups.into_iter().collect();
        out.sort_by_key(|(c, _)| *c);
        out
    }

    /// Size of the largest cluster (0 for an empty graph) — the balance
    /// criterion of [`Decomposition::sharding_partition`].
    #[must_use]
    pub fn max_cluster_size(&self) -> usize {
        self.clusters()
            .iter()
            .map(|(_, members)| members.len())
            .max()
            .unwrap_or(0)
    }

    /// The maximum hop diameter of any cluster, measured inside the induced
    /// subgraph of the cluster (strong diameter). Singleton clusters have
    /// diameter 0.
    #[must_use]
    pub fn max_cluster_hop_diameter(&self, graph: &Graph) -> u32 {
        let mut worst = 0;
        for (_, members) in self.clusters() {
            let (sub, _) = graph.induced_subgraph(&members);
            for v in 0..sub.vertex_count() {
                let ecc = bfs_hop_distances(&sub, VertexId::new(v))
                    .into_iter()
                    .flatten()
                    .max()
                    .unwrap_or(0);
                worst = worst.max(ecc);
            }
        }
        worst
    }
}

/// An `O(log n)`-partition padded decomposition together with the round cost
/// of computing it in the LOCAL model.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The partitions (each vertex belongs to exactly one cluster in each).
    pub partitions: Vec<Partition>,
    /// Rounds/messages used by the distributed clustering floods. All
    /// partitions can be computed in parallel in LOCAL, so `rounds` is the
    /// maximum over partitions, while traffic adds up.
    pub stats: RoundStats,
}

impl Decomposition {
    /// Returns `true` if every edge of the graph is contained in some cluster
    /// of some partition (the "padded" property of Theorem 11, which holds
    /// with high probability).
    #[must_use]
    pub fn covers_all_edges(&self, graph: &Graph) -> bool {
        graph.edges().all(|(_, e)| {
            let (u, v) = e.endpoints();
            self.partitions.iter().any(|p| p.covers_edge(graph, u, v))
        })
    }

    /// The most balanced partition: the one whose largest cluster is
    /// smallest (ties broken by partition index). `ShardPlan` in
    /// `ftspan-oracle` applies the same rule to its sequential clusterings.
    ///
    /// # Panics
    ///
    /// Panics if the decomposition has no partitions (never produced by
    /// [`padded_decomposition`]).
    #[must_use]
    pub fn sharding_partition(&self) -> &Partition {
        self.partitions
            .iter()
            .min_by_key(|p| p.max_cluster_size())
            .expect("decomposition has at least one partition")
    }

    /// Fraction of edges covered by at least one cluster.
    #[must_use]
    pub fn edge_coverage(&self, graph: &Graph) -> f64 {
        if graph.edge_count() == 0 {
            return 1.0;
        }
        let covered = graph
            .edges()
            .filter(|(_, e)| {
                let (u, v) = e.endpoints();
                self.partitions.iter().any(|p| p.covers_edge(graph, u, v))
            })
            .count();
        covered as f64 / graph.edge_count() as f64
    }
}

/// Options for [`padded_decomposition`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecompositionOptions {
    /// Rate of the exponential shifts; cluster radius is `O(log n / beta)`
    /// whp and each edge is cut with probability `O(beta)`.
    pub beta: f64,
    /// Number of partitions. `None` uses `⌈4·log₂ n⌉`, enough for the
    /// whp edge-coverage guarantee.
    pub partitions: Option<usize>,
}

impl Default for DecompositionOptions {
    fn default() -> Self {
        Self {
            beta: 0.25,
            partitions: None,
        }
    }
}

/// Builds one exponential-shift partition with a distributed flood, recording
/// its round cost in `net`.
fn exponential_shift_partition<R: Rng + ?Sized>(
    graph: &Graph,
    beta: f64,
    rng: &mut R,
    stats: &mut RoundStats,
) -> Partition {
    let n = graph.vertex_count();
    if n == 0 {
        return Partition {
            center_of: Vec::new(),
        };
    }
    let shifts = exponential_shifts(n, beta, rng);

    // Distributed Bellman–Ford on the shifted value max_u (δ_u − d(u, v)).
    // best[v] = (value, center); messages carry (center, value) = 2 words.
    let mut best: Vec<(f64, VertexId)> = shifts
        .iter()
        .enumerate()
        .map(|(v, &s)| (s, VertexId::new(v)))
        .collect();
    let mut changed: Vec<bool> = vec![true; n];
    let mut net: Network<'_, (VertexId, f64)> = Network::new(graph, Model::congest());
    let max_rounds = (shift_cap(n, beta).ceil() as usize) + 5;
    net.run_until_quiet(max_rounds, |v, inbox| {
        let idx = v.index();
        for msg in inbox {
            let (center, value) = msg.payload;
            let candidate = (value - 1.0, center);
            if candidate.0 > best[idx].0
                || (candidate.0 == best[idx].0 && candidate.1 < best[idx].1)
            {
                best[idx] = candidate;
                changed[idx] = true;
            }
        }
        if changed[idx] {
            changed[idx] = false;
            let (value, center) = best[idx];
            graph
                .neighbors(v)
                .map(|(nbr, _)| Outgoing::sized(nbr, (center, value), 2))
                .collect()
        } else {
            Vec::new()
        }
    });
    *stats = stats.parallel(net.stats());
    Partition {
        center_of: best.into_iter().map(|(_, c)| c).collect(),
    }
}

/// Builds a padded decomposition: `O(log n)` exponential-shift partitions.
///
/// The clustering floods for the different partitions are independent, so in
/// the LOCAL model they run in parallel; the returned round count is the
/// maximum over partitions (traffic adds up).
#[must_use]
pub fn padded_decomposition<R: Rng + ?Sized>(
    graph: &Graph,
    options: &DecompositionOptions,
    rng: &mut R,
) -> Decomposition {
    let n = graph.vertex_count();
    let repetitions = options
        .partitions
        .unwrap_or_else(|| ((n.max(2) as f64).log2() * 4.0).ceil() as usize)
        .max(1);
    let mut stats = RoundStats::default();
    let partitions = (0..repetitions)
        .map(|_| exponential_shift_partition(graph, options.beta, rng, &mut stats))
        .collect();
    Decomposition { partitions, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_vertex_gets_a_center_and_clusters_partition_v() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::connected_gnp(40, 0.1, &mut rng);
        let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
        for p in &d.partitions {
            let total: usize = p.clusters().iter().map(|(_, m)| m.len()).sum();
            assert_eq!(total, 40);
            // Every member of a cluster maps back to that center.
            for (center, members) in p.clusters() {
                assert!(
                    members.contains(&center),
                    "center must be in its own cluster"
                );
                for m in members {
                    assert_eq!(p.center_of(m), center);
                }
            }
        }
    }

    #[test]
    fn cluster_diameter_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::grid(8, 8);
        let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
        let bound = (8.0 * (64.0f64).ln() / 0.25).ceil() as u32 * 2 + 2;
        for p in &d.partitions {
            assert!(p.max_cluster_hop_diameter(&g) <= bound);
        }
    }

    #[test]
    fn decomposition_covers_all_edges_whp() {
        // Fixed seeds make the whp statement deterministic in the test.
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(50, 0.08, &mut rng);
            let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
            assert!(
                d.covers_all_edges(&g),
                "seed {seed}: coverage {}",
                d.edge_coverage(&g)
            );
        }
    }

    #[test]
    fn number_of_partitions_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::path(100);
        let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
        let expected = ((100.0f64).log2() * 4.0).ceil() as usize;
        assert_eq!(d.partitions.len(), expected);
        // Explicit partition count is honoured.
        let d = padded_decomposition(
            &g,
            &DecompositionOptions {
                partitions: Some(3),
                ..DecompositionOptions::default()
            },
            &mut rng,
        );
        assert_eq!(d.partitions.len(), 3);
    }

    #[test]
    fn flood_round_cost_is_logarithmic_not_linear() {
        // On a long path the clustering must finish in O(log n / beta) rounds,
        // far below the diameter.
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::path(300);
        let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
        let cap = 8.0 * (302.0f64).ln() / 0.25 + 2.0;
        assert!(
            (d.stats.rounds as f64) <= cap,
            "rounds {} exceed cap {cap}",
            d.stats.rounds
        );
        assert!(d.stats.rounds < 299);
    }

    #[test]
    fn messages_fit_in_congest_words() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::grid(6, 6);
        let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
        assert!(d.stats.max_words_per_edge_round <= 4);
    }

    #[test]
    fn singleton_and_empty_graphs() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = Graph::new(0);
        let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
        assert!(d.covers_all_edges(&g));
        let g = Graph::new(1);
        let d = padded_decomposition(&g, &DecompositionOptions::default(), &mut rng);
        assert_eq!(
            d.partitions[0].center_of(VertexId::new(0)),
            VertexId::new(0)
        );
        assert!((d.edge_coverage(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_fraction_is_between_zero_and_one() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::connected_gnp(30, 0.2, &mut rng);
        let d = padded_decomposition(
            &g,
            &DecompositionOptions {
                partitions: Some(1),
                beta: 0.9,
            },
            &mut rng,
        );
        let cov = d.edge_coverage(&g);
        assert!((0.0..=1.0).contains(&cov));
    }
}
