//! The modified greedy's sweep, as a warm-start respan.
//!
//! An online system (see the `ftspan-oracle` crate) keeps a spanner `H` of a
//! live graph `G` while `G` loses vertices and edges to churn. Rebuilding `H`
//! from scratch after every fault wave would be correct but wasteful; the
//! sweep here starts from the current spanner instead:
//!
//! * existing spanner edges are force-included, interleaved into the greedy's
//!   nondecreasing-weight sweep at their weight positions, and
//! * only *candidate* edges (typically the edges of a damaged neighbourhood)
//!   pay for an [`LBC`](crate::lbc) decision.
//!
//! Because the sweep processes edges in nondecreasing weight order and the
//! spanner only ever grows, the correctness argument of Theorems 5 and 10
//! applies verbatim: when a candidate is declined, every fault set of size at
//! most `f` leaves a `(2k − 1)`-hop path among strictly-lighter edges already
//! swept, and that witness survives in every supergraph. A respan over **all**
//! edges of `G` therefore restores the full `f`-fault-tolerant spanner
//! property no matter how damaged `H` was. From the empty spanner it is the
//! construction itself: [`poly_greedy_spanner_with`](crate::poly_greedy_spanner_with)
//! is [`full_respan`] from `H = (V, ∅)`.

use std::time::Instant;

use ftspan_graph::{EdgeId, Graph, VertexId};

use crate::lbc::{decide_lbc_with, LbcDecision, LbcScratch};
use crate::stats::{EdgeCertificate, SpannerStats};
use crate::{FaultSet, PolyGreedyOptions, SpannerParams};

/// Pooled state for repeated sweeps: the sweep-event vector and candidate
/// dedup marks of [`respan_candidates`], plus the incremental [`LbcScratch`]
/// engine its candidate decisions run on.
///
/// The event vector and the marks are sized by the **graph's** edge count,
/// and every decision needs fault views and BFS buffers. A serving layer
/// holds one `RepairScratch` and threads it through every wave
/// ([`respan_candidates_with`]), so a steady-state wave allocates only for
/// its outputs (the rebuilt spanner and any certificates). One-shot calls,
/// construction included, use a fresh scratch.
#[derive(Debug, Default)]
pub struct RepairScratch {
    lbc: LbcScratch,
    /// Sweep events: `(weight, class, index)` with class 0 = force-included
    /// spanner edge (index into the spanner), class 1 = candidate (index
    /// into the graph).
    events: Vec<(f64, u8, u32)>,
    /// Epoch-stamped candidate dedup marks, indexed by graph edge id.
    seen: ftspan_graph::EpochMarks,
}

impl RepairScratch {
    /// Creates an empty scratch; all buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Result of one repair pass.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The rebuilt spanner: every surviving edge of the previous spanner plus
    /// the candidate edges the greedy decided to add.
    pub spanner: Graph,
    /// Identifiers (into the input graph) of the candidate edges added.
    pub added: Vec<EdgeId>,
    /// Certificates for the added edges, when requested.
    pub certificates: Vec<EdgeCertificate>,
    /// Instrumentation counters (`lbc_calls` counts only candidate
    /// decisions — force-included spanner edges are free).
    pub stats: SpannerStats,
}

impl RepairOutcome {
    /// Number of candidate edges the repair added.
    #[must_use]
    pub fn edges_added(&self) -> usize {
        self.added.len()
    }
}

/// Re-runs the modified greedy over `spanner ∪ candidates` in nondecreasing
/// weight order, force-including the existing spanner edges and paying an
/// LBC decision only for the candidates.
///
/// `candidates` hold edge identifiers of `graph`; duplicates and candidates
/// already present in `spanner` (matched by endpoints) are skipped. The
/// existing spanner must be a subgraph of `graph` over the same vertex set
/// with matching weights — the usual invariant of every construction in this
/// crate.
///
/// The returned spanner contains every edge of `spanner`, so callers can
/// replace their spanner wholesale; certificates and
/// [`RepairOutcome::added`] describe the delta.
///
/// # Panics
///
/// Panics if the vertex counts differ or a candidate id is out of range.
#[must_use]
pub fn respan_candidates(
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    candidates: &[EdgeId],
    options: &PolyGreedyOptions,
) -> RepairOutcome {
    respan_candidates_with(
        &mut RepairScratch::new(),
        graph,
        spanner,
        params,
        candidates,
        options,
    )
}

/// Like [`respan_candidates`] but running on pooled [`RepairScratch`] state
/// — the form serving layers use, holding one scratch across every wave of
/// a churn loop. The output is bit-identical to [`respan_candidates`]; only
/// the per-call setup (sweep events, candidate dedup, LBC fault views and
/// BFS buffers) stops being reallocated, and candidate decisions sharing a
/// source reuse one first-round BFS tree (see [`LbcScratch`]).
///
/// # Panics
///
/// Panics if the vertex counts differ or a candidate id is out of range.
#[must_use]
pub fn respan_candidates_with(
    scratch: &mut RepairScratch,
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    candidates: &[EdgeId],
    options: &PolyGreedyOptions,
) -> RepairOutcome {
    assert_eq!(
        graph.vertex_count(),
        spanner.vertex_count(),
        "repair requires the spanner and graph to share a vertex set"
    );
    let start = Instant::now();
    let t = params.stretch();
    let alpha = params.f();
    let model = params.fault_model();

    // Sweep events: force-included spanner edges first at equal weight, so a
    // candidate's LBC decision always sees every previous commitment of the
    // same weight class — declining can only make the spanner sparser, never
    // invalid, because the force-included edge itself is a witness path.
    // Class 0 events index the spanner, class 1 events the graph.
    scratch.events.clear();
    for (id, edge) in spanner.edges() {
        scratch.events.push((edge.weight(), 0, id.as_u32()));
    }
    scratch.seen.begin(graph.edge_count());
    for &c in candidates {
        let edge = graph.edge(c);
        if !scratch.seen.set(c.index()) {
            continue;
        }
        let (u, v) = edge.endpoints();
        if spanner.edge_between(u, v).is_some() {
            continue;
        }
        scratch.events.push((edge.weight(), 1, c.as_u32()));
    }
    scratch.events.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });

    let mut rebuilt = Graph::with_capacity(graph.vertex_count(), scratch.events.len());
    let mut added = Vec::new();
    let mut certificates = Vec::new();
    let mut stats = SpannerStats {
        algorithm: "respan",
        input_vertices: graph.vertex_count(),
        input_edges: graph.edge_count(),
        ..SpannerStats::default()
    };

    scratch.lbc.reset();
    for &(_, class, index) in &scratch.events {
        if class == 0 {
            let edge = spanner.edge(EdgeId::new(index as usize));
            let (u, v) = edge.endpoints();
            if rebuilt.edge_between(u, v).is_none() {
                rebuilt.add_edge(u.index(), v.index(), edge.weight());
            }
        } else {
            let id = EdgeId::new(index as usize);
            let edge = graph.edge(id);
            let (u, v) = edge.endpoints();
            let (decision, lbc_stats) =
                decide_lbc_with(&mut scratch.lbc, &rebuilt, model, u, v, t, alpha);
            stats.lbc_calls += 1;
            stats.bfs_runs += lbc_stats.bfs_runs;
            if let LbcDecision::Yes(cut) = decision {
                let spanner_edge = rebuilt.add_edge(u.index(), v.index(), edge.weight());
                added.push(id);
                if options.collect_certificates {
                    certificates.push(EdgeCertificate {
                        input_edge: id,
                        spanner_edge,
                        cut,
                    });
                }
            }
        }
    }
    // The rebuilt graph dies with this frame; make sure no stale tree can
    // alias a future graph at the same address and counts.
    scratch.lbc.reset();

    stats.spanner_edges = rebuilt.edge_count();
    stats.elapsed = start.elapsed();
    // Serving layers install this spanner directly; hand it over in pure
    // CSR form so their query path never touches an append buffer.
    rebuilt.compact();
    RepairOutcome {
        spanner: rebuilt,
        added,
        certificates,
        stats,
    }
}

/// Respan over **every** edge of `graph`: the escalation path that restores
/// the full `f`-fault-tolerant `(2k − 1)`-spanner property regardless of how
/// damaged the current spanner is (see the module docs for why the
/// warm-start argument makes this sound).
#[must_use]
pub fn full_respan(
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    options: &PolyGreedyOptions,
) -> RepairOutcome {
    full_respan_with(&mut RepairScratch::new(), graph, spanner, params, options)
}

/// Like [`full_respan`] but running on pooled [`RepairScratch`] state; see
/// [`respan_candidates_with`].
#[must_use]
pub fn full_respan_with(
    scratch: &mut RepairScratch,
    graph: &Graph,
    spanner: &Graph,
    params: SpannerParams,
    options: &PolyGreedyOptions,
) -> RepairOutcome {
    let all: Vec<EdgeId> = graph.edge_ids().collect();
    respan_candidates_with(scratch, graph, spanner, params, &all, options)
}

/// Returns the certificates whose recorded cut `F_e` intersects `damage`.
///
/// A certificate witnesses that, when its edge was added, a small fault set
/// could sever every short detour for that edge. When real damage now
/// overlaps that cut, the region around the edge is exactly where the
/// spanner's redundancy was thinnest — serving layers use these edges to
/// seed the candidate neighbourhood of a localized repair.
#[must_use]
pub fn certificates_touching<'c>(
    certificates: &'c [EdgeCertificate],
    damage: &FaultSet,
) -> Vec<&'c EdgeCertificate> {
    certificates
        .iter()
        .filter(|cert| match (&cert.cut, damage) {
            (FaultSet::Vertices(cut), FaultSet::Vertices(hit)) => {
                cut.iter().any(|v| hit.contains(v))
            }
            (FaultSet::Edges(cut), FaultSet::Edges(hit)) => cut.iter().any(|e| hit.contains(e)),
            _ => false,
        })
        .collect()
}

/// Convenience used by repair drivers: the endpoints of every edge in a
/// candidate list, deduplicated — the seed set for neighbourhood expansion.
#[must_use]
pub fn candidate_endpoints(graph: &Graph, candidates: &[EdgeId]) -> Vec<VertexId> {
    let mut out: Vec<VertexId> = candidates
        .iter()
        .flat_map(|&e| {
            let (u, v) = graph.edge(e).endpoints();
            [u, v]
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_spanner, VerificationMode};
    use crate::{poly_greedy_spanner, poly_greedy_spanner_with};
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn respan_from_empty_equals_fresh_greedy() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::connected_gnp(20, 0.35, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let fresh = poly_greedy_spanner(&g, params);
        let empty = Graph::empty_like(&g);
        let repaired = full_respan(&g, &empty, params, &PolyGreedyOptions::default());
        assert_eq!(repaired.spanner.edge_count(), fresh.spanner.edge_count());
        assert_eq!(repaired.edges_added(), fresh.spanner.edge_count());
        for (_, e) in fresh.spanner.edges() {
            let (u, v) = e.endpoints();
            assert!(repaired.spanner.edge_between(u, v).is_some());
        }
    }

    #[test]
    fn respan_preserves_existing_edges_and_restores_validity() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = generators::connected_gnp(16, 0.4, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let built = poly_greedy_spanner(&g, params);
        // Damage the spanner: drop half its edges.
        let keep: Vec<EdgeId> = built
            .spanner
            .edge_ids()
            .filter(|e| e.index() % 2 == 0)
            .collect();
        let damaged = built.spanner.edge_subgraph(keep);
        let repaired = full_respan(&g, &damaged, params, &PolyGreedyOptions::default());
        // Every surviving edge is still there...
        assert!(damaged.is_edge_subgraph_of(&repaired.spanner));
        // ...and the repaired spanner is valid again.
        let report = verify_spanner(&g, &repaired.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn respan_on_a_valid_spanner_adds_nothing() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::connected_gnp(18, 0.3, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let built = poly_greedy_spanner(&g, params);
        let repaired = full_respan(&g, &built.spanner, params, &PolyGreedyOptions::default());
        // A valid f-FT spanner already witnesses every candidate, so the
        // warm-start sweep must decline them all.
        assert_eq!(repaired.edges_added(), 0);
        assert_eq!(repaired.spanner.edge_count(), built.spanner.edge_count());
    }

    #[test]
    fn respan_weighted_respects_weight_order() {
        let mut rng = StdRng::seed_from_u64(24);
        let base = generators::connected_gnp(14, 0.35, &mut rng);
        let g = generators::with_random_weights(&base, 1.0, 9.0, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let built = poly_greedy_spanner(&g, params);
        let keep: Vec<EdgeId> = built
            .spanner
            .edge_ids()
            .filter(|e| e.index() % 3 != 0)
            .collect();
        let damaged = built.spanner.edge_subgraph(keep);
        let repaired = full_respan(&g, &damaged, params, &PolyGreedyOptions::default());
        let report = verify_spanner(&g, &repaired.spanner, params, VerificationMode::Exhaustive);
        assert!(report.is_valid(), "violations: {:?}", report.violations);
    }

    #[test]
    fn partial_candidates_only_pay_for_candidates() {
        let g = generators::complete(12);
        let params = SpannerParams::vertex(2, 1);
        let built = poly_greedy_spanner(&g, params);
        let candidates: Vec<EdgeId> = g.edge_ids().take(10).collect();
        let out = respan_candidates(
            &g,
            &built.spanner,
            params,
            &candidates,
            &PolyGreedyOptions::default(),
        );
        // Only candidates not already in the spanner are decided.
        let fresh: usize = candidates
            .iter()
            .filter(|&&c| {
                let (u, v) = g.edge(c).endpoints();
                built.spanner.edge_between(u, v).is_none()
            })
            .count();
        assert_eq!(out.stats.lbc_calls, fresh);
        assert!(built.spanner.is_edge_subgraph_of(&out.spanner));
    }

    #[test]
    fn certificates_are_collected_when_requested() {
        let g = generators::complete(10);
        let params = SpannerParams::vertex(2, 1);
        let empty = Graph::empty_like(&g);
        let options = PolyGreedyOptions {
            collect_certificates: true,
        };
        let out = full_respan(&g, &empty, params, &options);
        assert_eq!(out.certificates.len(), out.edges_added());
        for cert in &out.certificates {
            let (u, v) = g.edge(cert.input_edge).endpoints();
            let (hu, hv) = out.spanner.edge(cert.spanner_edge).endpoints();
            assert_eq!((u, v), (hu, hv));
        }
    }

    #[test]
    fn certificates_touching_filters_by_model_and_membership() {
        let g = generators::complete(10);
        let params = SpannerParams::vertex(2, 2);
        let options = PolyGreedyOptions {
            collect_certificates: true,
        };
        let built = poly_greedy_spanner_with(&g, params, &options);
        let nonempty: Vec<_> = built
            .certificates
            .iter()
            .filter(|c| !c.cut.is_empty())
            .collect();
        assert!(
            !nonempty.is_empty(),
            "expected some non-trivial certificates"
        );
        let victim = nonempty[0].cut.vertex_faults()[0];
        let touched = certificates_touching(&built.certificates, &FaultSet::vertices([victim]));
        assert!(touched.iter().any(|c| c.cut.contains_vertex(victim)));
        assert!(touched.iter().all(|c| c.cut.contains_vertex(victim)));
        // Model mismatch yields nothing.
        let cross = certificates_touching(
            &built.certificates,
            &FaultSet::edges([ftspan_graph::eid(0)]),
        );
        assert!(cross.is_empty());
    }

    #[test]
    fn candidate_endpoints_deduplicates() {
        let g = generators::path(5);
        let ids: Vec<EdgeId> = g.edge_ids().collect();
        let ends = candidate_endpoints(&g, &ids);
        assert_eq!(ends, (0..5).map(vid).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_respan_matches_one_shot_respan_across_reuses() {
        // One scratch, three different repair problems in sequence: every
        // output must equal the one-shot (fresh-scratch) path's.
        let mut scratch = RepairScratch::new();
        for seed in [31u64, 32, 33] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(18, 0.3, &mut rng);
            let params = SpannerParams::vertex(2, 1);
            let built = poly_greedy_spanner(&g, params);
            let keep: Vec<EdgeId> = built
                .spanner
                .edge_ids()
                .filter(|e| e.index() % 2 == 0)
                .collect();
            let damaged = built.spanner.edge_subgraph(keep);
            let candidates: Vec<EdgeId> = g.edge_ids().collect();
            let options = PolyGreedyOptions {
                collect_certificates: true,
            };
            let reference = respan_candidates(&g, &damaged, params, &candidates, &options);
            let pooled =
                respan_candidates_with(&mut scratch, &g, &damaged, params, &candidates, &options);
            assert_eq!(pooled.added, reference.added);
            assert_eq!(pooled.stats.lbc_calls, reference.stats.lbc_calls);
            assert_eq!(pooled.spanner.edge_count(), reference.spanner.edge_count());
            assert_eq!(pooled.certificates.len(), reference.certificates.len());
            for (a, b) in pooled.certificates.iter().zip(&reference.certificates) {
                assert_eq!(a.input_edge, b.input_edge);
                assert_eq!(a.cut, b.cut);
            }
            assert!(reference.spanner.is_edge_subgraph_of(&pooled.spanner));
        }
    }

    #[test]
    #[should_panic(expected = "share a vertex set")]
    fn mismatched_vertex_sets_panic() {
        let g = generators::path(4);
        let h = Graph::new(5);
        let _ = full_respan(
            &g,
            &h,
            SpannerParams::vertex(2, 1),
            &PolyGreedyOptions::default(),
        );
    }
}
