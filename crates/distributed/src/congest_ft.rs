//! The CONGEST-model fault-tolerant spanner construction (Theorem 15):
//! the Dinitz–Krauthgamer sampling framework executed with distributed
//! Baswana–Sen, with all iterations simulated in parallel.
//!
//! **Phase 1 — iteration selection.** Each vertex locally picks, for each of
//! the `J = O(f³ log n)` iterations, whether it participates (probability
//! `≈ 1/f`) and sends its list of chosen iteration indices to its neighbours.
//! Each index needs `O(log f + log log n)` bits, so the whole list fits in
//! `O(f²(log f + log log n))` rounds of `O(log n)`-bit messages (whp each
//! vertex participates in `O(f² log n)` iterations). The selection itself is
//! simulated directly; the round cost is charged from the measured list
//! lengths and the bit-packing argument above — exactly the paper's
//! accounting.
//!
//! **Phase 2 — parallel Baswana–Sen.** Every iteration runs distributed
//! Baswana–Sen on the subgraph induced by its participants. The paper's
//! scheduling argument is used verbatim: with high probability each edge has
//! both endpoints participating in at most `O(f log n)` iterations, so each
//! Baswana–Sen round can be simulated in that many real rounds. We run every
//! iteration in the round engine (measuring its own rounds and traffic),
//! measure the *actual* worst per-edge iteration multiplicity, and charge
//! `max_rounds_of_any_iteration × max_edge_multiplicity` rounds for phase 2.

use ftspan::dk::{dk_iteration_count, participation_probability};
use ftspan::{SpannerParams, SpannerStats};
use ftspan_graph::{Graph, VertexId};
use rand::Rng;

use crate::congest_bs::congest_baswana_sen;
use crate::local_spanner::DistributedSpannerResult;
use crate::metrics::RoundStats;
use crate::runtime::Model;

/// Detailed accounting of a Theorem 15 run, on top of the common result.
#[derive(Clone, Debug)]
pub struct CongestFtResult {
    /// The spanner, round statistics, and local-work counters.
    pub result: DistributedSpannerResult,
    /// Number of Dinitz–Krauthgamer iterations executed.
    pub iterations: usize,
    /// Rounds charged to phase 1 (announcing iteration choices).
    pub phase1_rounds: usize,
    /// Rounds charged to phase 2 (congestion-scheduled parallel Baswana–Sen).
    pub phase2_rounds: usize,
    /// The worst number of iterations sharing a single edge (the congestion
    /// factor of the paper's scheduling argument).
    pub max_edge_multiplicity: usize,
    /// The largest round count of any single Baswana–Sen iteration.
    pub max_iteration_rounds: usize,
}

/// Runs the Theorem 15 construction.
///
/// # Examples
///
/// ```
/// use ftspan::SpannerParams;
/// use ftspan_distributed::congest_ft_spanner;
/// use ftspan_graph::generators;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let g = generators::connected_gnp(30, 0.2, &mut rng);
/// let out = congest_ft_spanner(&g, SpannerParams::vertex(2, 1), &mut rng);
/// assert!(out.result.spanner.edge_count() <= g.edge_count());
/// ```
#[must_use]
pub fn congest_ft_spanner<R: Rng + ?Sized>(
    graph: &Graph,
    params: SpannerParams,
    rng: &mut R,
) -> CongestFtResult {
    let n = graph.vertex_count();
    let m = graph.edge_count();
    let k = params.k();
    let f = params.f();
    let mut spanner = Graph::empty_like(graph);
    let mut local_work = SpannerStats {
        algorithm: "congest-ft-spanner",
        input_vertices: n,
        input_edges: m,
        ..SpannerStats::default()
    };

    if f == 0 || n < 2 || m == 0 {
        // Degenerate case: a single Baswana–Sen run suffices.
        let single = congest_baswana_sen(graph, k, rng);
        spanner.union_edges_from(&single.spanner);
        local_work.spanner_edges = spanner.edge_count();
        return CongestFtResult {
            result: DistributedSpannerResult {
                spanner,
                params,
                rounds: single.rounds,
                local_work,
                partitions: 1,
            },
            iterations: 1,
            phase1_rounds: 0,
            phase2_rounds: single.rounds.rounds,
            max_edge_multiplicity: 1,
            max_iteration_rounds: single.rounds.rounds,
        };
    }

    let iterations = dk_iteration_count(n, m, f);
    let participation = participation_probability(f);

    // Phase 1: every vertex picks its iterations locally.
    let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); n];
    for list in &mut chosen {
        for it in 0..iterations {
            if rng.gen_bool(participation) {
                list.push(it);
            }
        }
    }
    // Round cost of announcing the lists to neighbours: each index takes
    // log2(iterations) bits; one message carries the CONGEST word budget of
    // log2(n) bits each.
    let words_per_message = Model::congest()
        .word_limit()
        .expect("CONGEST bounds the message size");
    let bits_per_index = (iterations.max(2) as f64).log2().ceil().max(1.0);
    let bits_per_message = (words_per_message as f64) * (n.max(2) as f64).log2().ceil().max(1.0);
    let longest_list = chosen.iter().map(Vec::len).max().unwrap_or(0);
    let phase1_rounds = ((longest_list as f64) * bits_per_index / bits_per_message).ceil() as usize;

    // Phase 2: one distributed Baswana–Sen per iteration, on the induced
    // subgraph of that iteration's participants.
    let mut members_of: Vec<Vec<VertexId>> = vec![Vec::new(); iterations];
    for (v, list) in chosen.iter().enumerate() {
        for &it in list {
            members_of[it].push(VertexId::new(v));
        }
    }
    let mut max_iteration_rounds = 0usize;
    let mut traffic = RoundStats::default();
    for members in &members_of {
        if members.len() < 2 {
            continue;
        }
        let (induced, original) = graph.induced_subgraph(members);
        if induced.edge_count() == 0 {
            continue;
        }
        let run = congest_baswana_sen(&induced, k, rng);
        max_iteration_rounds = max_iteration_rounds.max(run.rounds.rounds);
        traffic = traffic.parallel(run.rounds);
        for (_, edge) in run.spanner.edges() {
            let (a, b) = edge.endpoints();
            let (u, v) = (original[a.index()], original[b.index()]);
            if spanner.edge_between(u, v).is_none() {
                spanner.add_edge(u.index(), v.index(), edge.weight());
            }
        }
    }

    // The scheduling factor: how many iterations contend for the busiest edge.
    let participates = |v: VertexId, it: usize| chosen[v.index()].binary_search(&it).is_ok();
    let mut max_edge_multiplicity = 0usize;
    for (_, edge) in graph.edges() {
        let (u, v) = edge.endpoints();
        let both = (0..iterations)
            .filter(|&it| participates(u, it) && participates(v, it))
            .count();
        max_edge_multiplicity = max_edge_multiplicity.max(both);
    }
    let phase2_rounds = max_iteration_rounds * max_edge_multiplicity.max(1);

    local_work.spanner_edges = spanner.edge_count();
    let rounds = RoundStats {
        rounds: phase1_rounds + phase2_rounds,
        messages: traffic.messages,
        words: traffic.words,
        max_words_per_edge_round: traffic.max_words_per_edge_round,
    };
    CongestFtResult {
        result: DistributedSpannerResult {
            spanner,
            params,
            rounds,
            local_work,
            partitions: iterations,
        },
        iterations,
        phase1_rounds,
        phase2_rounds,
        max_edge_multiplicity,
        max_iteration_rounds,
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
    fn output_is_a_valid_fault_tolerant_spanner() {
        let mut rng = StdRng::seed_from_u64(20);
        let g = generators::connected_gnp(14, 0.4, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let out = congest_ft_spanner(&g, params, &mut rng);
        let report = verify_spanner(
            &g,
            &out.result.spanner,
            params,
            VerificationMode::Exhaustive,
        );
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn size_respects_theorem_15_reference_curve() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::connected_gnp(40, 0.5, &mut rng);
        let params = SpannerParams::vertex(2, 2);
        let out = congest_ft_spanner(&g, params, &mut rng);
        let bound = (4.0 * bounds::congest_size_bound(40, 2, 2)).min(g.edge_count() as f64);
        assert!((out.result.spanner.edge_count() as f64) <= bound);
    }

    #[test]
    fn round_count_matches_the_theorem_shape() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = generators::connected_gnp(60, 0.15, &mut rng);
        let params = SpannerParams::vertex(2, 2);
        let out = congest_ft_spanner(&g, params, &mut rng);
        assert_eq!(
            out.result.rounds.rounds,
            out.phase1_rounds + out.phase2_rounds
        );
        // Generous constant over O(f²(log f + log log n) + k² f log n).
        let bound = 40.0 * bounds::congest_round_bound(60, 2, 2);
        assert!(
            (out.result.rounds.rounds as f64) <= bound,
            "rounds {} exceed {bound}",
            out.result.rounds.rounds
        );
        assert!(out.iterations > 1);
        assert!(out.max_iteration_rounds > 0);
    }

    #[test]
    fn congestion_factor_is_logarithmic_not_equal_to_iterations() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::connected_gnp(50, 0.2, &mut rng);
        let params = SpannerParams::vertex(2, 3);
        let out = congest_ft_spanner(&g, params, &mut rng);
        // The whole point of the two-phase schedule: the busiest edge is
        // shared by far fewer iterations than the total number of iterations.
        assert!(out.max_edge_multiplicity < out.iterations);
        assert!(out.max_edge_multiplicity >= 1);
    }

    #[test]
    fn f_zero_degenerates_to_plain_baswana_sen() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = generators::connected_gnp(20, 0.3, &mut rng);
        let params = SpannerParams::vertex(2, 0);
        let out = congest_ft_spanner(&g, params, &mut rng);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.phase1_rounds, 0);
        let report = verify_spanner(
            &g,
            &out.result.spanner,
            params,
            VerificationMode::Exhaustive,
        );
        assert!(report.is_valid());
    }

    #[test]
    fn messages_respect_congest_budget() {
        let mut rng = StdRng::seed_from_u64(25);
        let g = generators::connected_gnp(30, 0.2, &mut rng);
        let out = congest_ft_spanner(&g, SpannerParams::vertex(2, 1), &mut rng);
        assert!(out.result.rounds.max_words_per_edge_round <= 6);
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let mut rng = StdRng::seed_from_u64(26);
        for n in 0..3usize {
            let g = Graph::new(n);
            let out = congest_ft_spanner(&g, SpannerParams::vertex(2, 1), &mut rng);
            assert_eq!(out.result.spanner.edge_count(), 0);
        }
    }
}
