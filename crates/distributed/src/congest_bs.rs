//! Distributed Baswana–Sen in the CONGEST model (Theorem 14).
//!
//! Each of the `k − 1` clustering phases needs only local information:
//! a vertex must learn (i) whether its own cluster was sampled, which the
//! cluster center floods through the cluster (at most `i` rounds in phase `i`,
//! two-word messages), and (ii) the cluster identity and sampled status of
//! each neighbour (one exchange round, three-word messages). All remaining
//! work — choosing the lightest edges, joining a cluster, discarding edges —
//! is local computation, plus one round to notify edge partners of
//! added/discarded edges. The final join phase costs another two rounds.
//! Total: `O(k²)` rounds with `O(1)`-word messages, exactly the budget the
//! paper quotes from \[BS07\].

use std::collections::BTreeMap;

use ftspan::{SpannerParams, SpannerStats};
use ftspan_graph::{EdgeId, Graph, VertexId};
use rand::Rng;

use crate::local_spanner::DistributedSpannerResult;
use crate::metrics::RoundStats;
use crate::runtime::{Model, Network, Outgoing};

/// Messages exchanged by the distributed Baswana–Sen algorithm.
#[derive(Clone, Debug, PartialEq)]
enum BsMsg {
    /// Flooded inside a cluster: "cluster `center` was (not) sampled".
    ClusterBit { center: VertexId, sampled: bool },
    /// Neighbour information exchange: the sender's current cluster (if any)
    /// and whether that cluster was sampled this phase.
    Info {
        center: Option<VertexId>,
        sampled: bool,
    },
}

/// Runs distributed Baswana–Sen on `graph`, returning the spanner and the
/// exact round/message cost incurred in the CONGEST model.
///
/// The stretch guarantee `(2k − 1)` holds for every random outcome; the
/// expected size is `O(k · n^{1+1/k})`.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn congest_baswana_sen<R: Rng + ?Sized>(
    graph: &Graph,
    k: u32,
    rng: &mut R,
) -> DistributedSpannerResult {
    assert!(k >= 1, "stretch parameter k must be at least 1");
    let n = graph.vertex_count();
    let mut spanner = Graph::empty_like(graph);
    let mut rounds = RoundStats::default();
    let mut stats = SpannerStats {
        algorithm: "congest-baswana-sen",
        input_vertices: n,
        input_edges: graph.edge_count(),
        ..SpannerStats::default()
    };

    if k == 1 || n == 0 {
        // Stretch 1: every edge stays; no communication needed.
        spanner.union_edges_from(graph);
        stats.spanner_edges = spanner.edge_count();
        return DistributedSpannerResult {
            spanner,
            params: SpannerParams::vertex(k.max(1), 0),
            rounds,
            local_work: stats,
            partitions: 1,
        };
    }

    let sample_probability = (n.max(2) as f64).powf(-1.0 / f64::from(k));
    let mut cluster: Vec<Option<VertexId>> = (0..n).map(|v| Some(VertexId::new(v))).collect();
    let mut alive: Vec<bool> = vec![true; graph.edge_count()];

    for phase in 1..k {
        // (a) Centers flip their coins locally.
        let mut sampled_center: BTreeMap<VertexId, bool> = BTreeMap::new();
        for (v, &c) in cluster.iter().enumerate() {
            if c == Some(VertexId::new(v)) {
                sampled_center.insert(VertexId::new(v), rng.gen_bool(sample_probability));
            }
        }

        // (b) Flood the sampled bit inside each cluster (radius ≤ phase).
        let mut own_bit: Vec<Option<bool>> = (0..n)
            .map(|v| match cluster[v] {
                Some(c) if c == VertexId::new(v) => sampled_center.get(&c).copied(),
                _ => None,
            })
            .collect();
        {
            let mut newly = vec![false; n];
            for v in 0..n {
                newly[v] = own_bit[v].is_some();
            }
            let mut net: Network<'_, BsMsg> = Network::new(graph, Model::congest());
            net.run_until_quiet(phase as usize + 2, |v, inbox| {
                let idx = v.index();
                for msg in inbox {
                    if let BsMsg::ClusterBit { center, sampled } = msg.payload {
                        if own_bit[idx].is_none() && cluster[idx] == Some(center) {
                            own_bit[idx] = Some(sampled);
                            newly[idx] = true;
                        }
                    }
                }
                if newly[idx] {
                    newly[idx] = false;
                    if let (Some(bit), Some(center)) = (own_bit[idx], cluster[idx]) {
                        return graph
                            .neighbors(v)
                            .map(|(nbr, _)| {
                                Outgoing::sized(
                                    nbr,
                                    BsMsg::ClusterBit {
                                        center,
                                        sampled: bit,
                                    },
                                    2,
                                )
                            })
                            .collect();
                    }
                }
                Vec::new()
            });
            rounds = rounds.sequential(net.stats());
        }

        // (c) One exchange round: every vertex tells its neighbours its
        // cluster and the sampled bit.
        let mut nbr_info: Vec<BTreeMap<VertexId, (Option<VertexId>, bool)>> =
            vec![BTreeMap::new(); n];
        {
            let mut net: Network<'_, BsMsg> = Network::new(graph, Model::congest());
            net.round(|v, _| {
                let idx = v.index();
                let center = cluster[idx];
                let sampled = own_bit[idx].unwrap_or(false);
                graph
                    .neighbors(v)
                    .map(|(nbr, _)| Outgoing::sized(nbr, BsMsg::Info { center, sampled }, 3))
                    .collect()
            });
            net.round(|v, inbox| {
                let idx = v.index();
                for msg in inbox {
                    if let BsMsg::Info { center, sampled } = msg.payload {
                        nbr_info[idx].insert(msg.from, (center, sampled));
                    }
                }
                Vec::new()
            });
            rounds = rounds.sequential(net.stats());
        }

        // (d) Local decisions for vertices whose cluster was not sampled,
        // followed by one notification round (charged below) informing edge
        // partners of additions and discards.
        let mut next_cluster: Vec<Option<VertexId>> = vec![None; n];
        for v in 0..n {
            if let Some(c) = cluster[v] {
                if *sampled_center.get(&c).unwrap_or(&false) {
                    next_cluster[v] = Some(c);
                }
            }
        }
        for v_idx in 0..n {
            let v = VertexId::new(v_idx);
            let Some(cv) = cluster[v_idx] else { continue };
            if *sampled_center.get(&cv).unwrap_or(&false) {
                continue;
            }
            // Lightest alive edge to each adjacent foreign cluster, learned
            // entirely from the neighbour exchange.
            let mut best: BTreeMap<VertexId, (f64, EdgeId, bool)> = BTreeMap::new();
            for (w, e) in graph.neighbors(v) {
                if !alive[e.index()] {
                    continue;
                }
                let Some(&(Some(cw), cw_sampled)) = nbr_info[v_idx].get(&w) else {
                    continue;
                };
                if cw == cv {
                    continue;
                }
                let weight = graph.weight(e);
                let entry = best.entry(cw).or_insert((weight, e, cw_sampled));
                if weight < entry.0 || (weight == entry.0 && e < entry.1) {
                    *entry = (weight, e, cw_sampled);
                }
            }
            if best.is_empty() {
                continue;
            }
            let best_sampled = best
                .iter()
                .filter(|(_, (_, _, sampled))| *sampled)
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.cmp(&b.1 .1)))
                .map(|(c, (w, e, _))| (*c, *w, *e));
            match best_sampled {
                None => {
                    for (_, e, _) in best.values() {
                        insert_edge(&mut spanner, graph, *e);
                    }
                    for (w, e) in graph.neighbors(v) {
                        if alive[e.index()]
                            && nbr_info[v_idx].get(&w).is_some_and(|(c, _)| c.is_some())
                        {
                            alive[e.index()] = false;
                        }
                    }
                }
                Some((home, home_weight, home_edge)) => {
                    insert_edge(&mut spanner, graph, home_edge);
                    next_cluster[v_idx] = Some(home);
                    for (c, (w, e, _)) in &best {
                        if *c != home && *w < home_weight {
                            insert_edge(&mut spanner, graph, *e);
                        }
                    }
                    for (w, e) in graph.neighbors(v) {
                        if !alive[e.index()] {
                            continue;
                        }
                        let Some(&(Some(cw), _)) = nbr_info[v_idx].get(&w) else {
                            continue;
                        };
                        let discard =
                            cw == home || best.get(&cw).is_some_and(|(w2, _, _)| *w2 < home_weight);
                        if discard {
                            alive[e.index()] = false;
                        }
                    }
                }
            }
        }
        // Notification round: one word per touched edge.
        rounds = rounds.sequential(RoundStats {
            rounds: 1,
            ..RoundStats::default()
        });

        cluster = next_cluster;
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

    // Final phase: one exchange round of final cluster ids, local selection
    // of the lightest edge to each adjacent cluster, one notification round.
    {
        let mut nbr_cluster: Vec<BTreeMap<VertexId, Option<VertexId>>> = vec![BTreeMap::new(); n];
        let mut net: Network<'_, BsMsg> = Network::new(graph, Model::congest());
        net.round(|v, _| {
            let center = cluster[v.index()];
            graph
                .neighbors(v)
                .map(|(nbr, _)| {
                    Outgoing::sized(
                        nbr,
                        BsMsg::Info {
                            center,
                            sampled: false,
                        },
                        2,
                    )
                })
                .collect()
        });
        net.round(|v, inbox| {
            for msg in inbox {
                if let BsMsg::Info { center, .. } = msg.payload {
                    nbr_cluster[v.index()].insert(msg.from, center);
                }
            }
            Vec::new()
        });
        rounds = rounds.sequential(net.stats());
        for v_idx in 0..n {
            let v = VertexId::new(v_idx);
            let own = cluster[v_idx];
            let mut best: BTreeMap<VertexId, (f64, EdgeId)> = BTreeMap::new();
            for (w, e) in graph.neighbors(v) {
                if !alive[e.index()] {
                    continue;
                }
                let Some(&Some(cw)) = nbr_cluster[v_idx].get(&w) else {
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
        rounds = rounds.sequential(RoundStats {
            rounds: 1,
            ..RoundStats::default()
        });
    }

    stats.spanner_edges = spanner.edge_count();
    DistributedSpannerResult {
        spanner,
        params: SpannerParams::vertex(k, 0),
        rounds,
        local_work: stats,
        partitions: 1,
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
    use ftspan::bounds;
    use ftspan::verify::{verify_spanner, VerificationMode};
    use ftspan_graph::generators;
    use ftspan_graph::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_a_valid_spanner() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(22, 0.25, &mut rng);
            let result = congest_baswana_sen(&g, 2, &mut rng);
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
    fn weighted_graphs_are_supported() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = generators::connected_gnp(18, 0.3, &mut rng);
        let g = generators::with_random_weights(&base, 1.0, 8.0, &mut rng);
        let result = congest_baswana_sen(&g, 3, &mut rng);
        let report = verify_spanner(
            &g,
            &result.spanner,
            SpannerParams::vertex(3, 0),
            VerificationMode::Exhaustive,
        );
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn round_complexity_is_quadratic_in_k_not_n() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::connected_gnp(120, 0.05, &mut rng);
        for k in [2u32, 3, 4] {
            let mut local = StdRng::seed_from_u64(u64::from(k));
            let result = congest_baswana_sen(&g, k, &mut local);
            // Generous constant over O(k^2); crucially independent of n.
            let bound = 12.0 * bounds::baswana_sen_round_bound(k) + 12.0;
            assert!(
                (result.rounds.rounds as f64) <= bound,
                "k = {k}: rounds {} exceed {bound}",
                result.rounds.rounds
            );
        }
    }

    #[test]
    fn messages_respect_the_congest_word_budget() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::connected_gnp(40, 0.15, &mut rng);
        let result = congest_baswana_sen(&g, 3, &mut rng);
        assert!(result.rounds.max_words_per_edge_round <= 6);
    }

    #[test]
    fn connected_input_gives_connected_spanner() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::connected_gnp(60, 0.1, &mut rng);
        let result = congest_baswana_sen(&g, 3, &mut rng);
        assert!(is_connected(&result.spanner));
    }

    #[test]
    fn size_comparable_to_centralized_baswana_sen() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::complete(60);
        let distributed = congest_baswana_sen(&g, 2, &mut rng);
        let bound = 4.0 * bounds::baswana_sen_size_bound(60, 2);
        assert!((distributed.spanner.edge_count() as f64) < bound);
        assert!(distributed.spanner.edge_count() < g.edge_count());
    }

    #[test]
    fn k_one_and_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::complete(6);
        let r = congest_baswana_sen(&g, 1, &mut rng);
        assert_eq!(r.spanner.edge_count(), 15);
        assert_eq!(r.rounds.rounds, 0);
        let g = Graph::new(0);
        let r = congest_baswana_sen(&g, 2, &mut rng);
        assert_eq!(r.spanner.edge_count(), 0);
    }
}
