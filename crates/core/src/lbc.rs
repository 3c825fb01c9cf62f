//! The Length-Bounded Cut gap decision `LBC(t, α)` — Algorithm 2 of the paper.
//!
//! Given terminals `u, v`, a hop bound `t`, and a budget `α`, the decision
//! problem asks:
//!
//! * if there is a set `F` of at most `α` vertices (resp. edges), avoiding the
//!   terminals, whose removal leaves no `u`–`v` path of at most `t` hops, the
//!   answer must be **YES**;
//! * if every such cut needs more than `α · t` vertices (resp. edges), the
//!   answer must be **NO**;
//! * anything may be answered in between.
//!
//! Exact Length-Bounded Cut is NP-hard [Baier et al. 2006], but this gap
//! version is decided by the classical "frequency" heuristic for Hitting Set:
//! repeatedly find a path of at most `t` hops and delete all of it. If `α + 1`
//! rounds still find a path, answer NO (Theorem 4 of the paper shows this is
//! correct and runs in `O((m + n) · α)` time).

use ftspan_graph::bfs::{shortest_hop_path_within, HopBfsScratch, HopPath};
use ftspan_graph::{EdgeId, FaultScratch, FaultView, Graph, VertexId};

use crate::{FaultModel, FaultSet};

/// Outcome of the `LBC(t, α)` gap decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LbcDecision {
    /// There is no `u`–`v` path of at most `t` hops once the returned fault
    /// set is removed. The set has at most `α · (t − 1)` vertices (or `α · t`
    /// edges in the edge variant) and certifies that a small length-bounded
    /// cut exists — this is the certificate `F_e` used in Lemma 6.
    Yes(FaultSet),
    /// After `α + 1` path-deletion rounds a short path still survives, so
    /// every length-`t` cut has more than `α` elements (in fact the instance
    /// cannot have a cut of size ≤ α, by Theorem 4's argument).
    No,
}

impl LbcDecision {
    /// Returns `true` for the YES outcome.
    #[must_use]
    pub fn is_yes(&self) -> bool {
        matches!(self, LbcDecision::Yes(_))
    }

    /// Returns the certificate cut of a YES outcome.
    #[must_use]
    pub fn certificate(&self) -> Option<&FaultSet> {
        match self {
            LbcDecision::Yes(cut) => Some(cut),
            LbcDecision::No => None,
        }
    }
}

/// Counters describing one LBC decision run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LbcStats {
    /// Number of hop-bounded BFS passes this decision actually executed.
    ///
    /// For one decision this is at most `α + 1` (Algorithm 2's budget). The
    /// incremental engine ([`LbcScratch`]) can bring it *below* the
    /// from-scratch count — a first-round tree shared across same-source
    /// candidates is counted only by the decision that built it, and
    /// decisions answered entirely from the shared tree report `0`. Do not
    /// confuse this per-decision counter with the *aggregated* repair and
    /// construction counters ([`crate::SpannerStats::bfs_runs`]), which sum
    /// it over every LBC call of a sweep and therefore track total work, not
    /// a per-decision budget.
    pub bfs_runs: usize,
    /// Total number of vertices (or edges) added to the working fault set.
    pub cut_size: usize,
}

/// Decides `LBC(t, α)` between `u` and `v` on `graph`, deleting **vertices**.
///
/// This is Algorithm 2 as written in the paper. The graph is treated as
/// unweighted: only hop counts matter, which is exactly how the modified
/// greedy algorithm (Algorithms 3 and 4) invokes it.
///
/// # Panics
///
/// Panics if `u` or `v` is out of range for `graph`.
#[must_use]
pub fn decide_vertex_lbc(
    graph: &Graph,
    u: VertexId,
    v: VertexId,
    t: u32,
    alpha: u32,
) -> (LbcDecision, LbcStats) {
    let mut view = FaultView::new(graph);
    let mut cut: Vec<VertexId> = Vec::new();
    let mut stats = LbcStats::default();
    for _ in 0..=alpha {
        stats.bfs_runs += 1;
        match shortest_hop_path_within(&view, u, v, t) {
            None => return (LbcDecision::Yes(FaultSet::vertices(cut)), stats),
            Some(path) => {
                for &x in path.interior_vertices() {
                    if view.block_vertex(x) {
                        cut.push(x);
                        stats.cut_size += 1;
                    }
                }
                // A direct edge {u, v} has no interior vertices and can never
                // be cut by vertex faults; further iterations cannot help.
                if path.hop_count() <= 1 {
                    return (LbcDecision::No, stats);
                }
            }
        }
    }
    (LbcDecision::No, stats)
}

/// Decides `LBC(t, α)` between `u` and `v` on `graph`, deleting **edges**.
///
/// Identical to [`decide_vertex_lbc`] except that whole paths of edges are
/// added to the fault set, matching the edge-fault-tolerant variant described
/// at the end of Section 3.1 of the paper.
///
/// # Panics
///
/// Panics if `u` or `v` is out of range for `graph`.
#[must_use]
fn decide_edge_lbc(
    graph: &Graph,
    u: VertexId,
    v: VertexId,
    t: u32,
    alpha: u32,
) -> (LbcDecision, LbcStats) {
    let mut view = FaultView::new(graph);
    let mut cut = Vec::new();
    let mut stats = LbcStats::default();
    for _ in 0..=alpha {
        stats.bfs_runs += 1;
        match shortest_hop_path_within(&view, u, v, t) {
            None => return (LbcDecision::Yes(FaultSet::edges(cut)), stats),
            Some(path) => {
                for &e in &path.edges {
                    if view.block_edge(e) {
                        cut.push(e);
                        stats.cut_size += 1;
                    }
                }
            }
        }
    }
    (LbcDecision::No, stats)
}

/// Decides `LBC(t, α)` for either fault model.
///
/// # Panics
///
/// Panics if `u` or `v` is out of range for `graph`.
#[must_use]
pub fn decide_lbc(
    graph: &Graph,
    model: FaultModel,
    u: VertexId,
    v: VertexId,
    t: u32,
    alpha: u32,
) -> (LbcDecision, LbcStats) {
    match model {
        FaultModel::Vertex => decide_vertex_lbc(graph, u, v, t, alpha),
        FaultModel::Edge => decide_edge_lbc(graph, u, v, t, alpha),
    }
}

/// A candidate tree key: the graph identity and search parameters the
/// cached first-round tree was built against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TreeKey {
    /// Address of the graph the tree was built on. Combined with the vertex
    /// and edge counts this detects every mutation our sweeps perform
    /// (they only ever *add* edges); see [`LbcScratch`] for the contract.
    graph_addr: usize,
    vertices: usize,
    edges: usize,
    source: VertexId,
    max_hops: u32,
}

/// Pooled state for a *sequence* of LBC decisions: the incremental engine
/// behind warm-start respans ([`crate::repair`]) and the modified greedy
/// construction.
///
/// Two costs dominate repeated from-scratch [`decide_lbc`] calls:
///
/// * **Per-call setup** — every call allocates a [`FaultView`] (two bitmaps
///   sized by the graph) and every BFS inside it allocates distance/parent
///   arrays, a queue, and path vectors. The scratch pools all of it with
///   `O(1)` epoch-stamp clearing, so a decision's cost is proportional to
///   the vertices its searches actually visit.
/// * **Redundant first rounds** — Algorithm 2's first BFS runs on the graph
///   with *no* faults applied, so consecutive candidates `{u, v₁}, {u, v₂},
///   …` sharing a source (the common case: sweeps visit edges in id order,
///   which groups sources) repeat an identical pass. The scratch keeps one
///   hop-bounded BFS **tree** per `(graph state, source, t)` and decides
///   every same-source candidate's first round from it: unreachable within
///   `t` ⇒ immediate `YES` with the empty certificate, a 1-hop path in the
///   vertex model ⇒ immediate `NO`, otherwise the tree path seeds the
///   fault-set rounds — all without re-running the pass.
///
/// Decisions (and `YES` certificates) are **bit-identical** to the
/// from-scratch functions: the shared tree records exactly the parents an
/// early-exit search would (see [`HopBfsScratch`]), and every later round
/// runs the same search over an identically-filtered view. Only
/// [`LbcStats::bfs_runs`] can be lower, since shared passes are counted
/// once.
///
/// **Contract:** the cached tree is keyed by graph address plus vertex/edge
/// counts, which detects the only mutation the sweeps perform between
/// decisions (adding edges). Callers that mutate a graph some other way
/// (or interleave decisions on two same-shaped graphs at one address) must
/// call [`LbcScratch::reset`] in between.
#[derive(Debug, Default)]
pub struct LbcScratch {
    faults: FaultScratch,
    search: HopBfsScratch,
    tree: HopBfsScratch,
    path: HopPath,
    cut_vertices: Vec<VertexId>,
    cut_edges: Vec<EdgeId>,
    tree_key: Option<TreeKey>,
}

impl LbcScratch {
    /// Creates an empty scratch; all buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached first-round tree. Required only when the caller
    /// mutates a graph in a way the key cannot detect (anything other than
    /// adding edges) between decisions on it.
    pub fn reset(&mut self) {
        self.tree_key = None;
    }

    /// Ensures the cached tree matches `(graph, source, max_hops)`,
    /// rebuilding it if not. Returns `true` when a BFS pass was executed.
    fn ensure_tree(&mut self, graph: &Graph, source: VertexId, max_hops: u32) -> bool {
        let key = TreeKey {
            graph_addr: std::ptr::from_ref(graph) as usize,
            vertices: graph.vertex_count(),
            edges: graph.edge_count(),
            source,
            max_hops,
        };
        if self.tree_key == Some(key) {
            return false;
        }
        self.tree.build_tree(graph, source, max_hops);
        self.tree_key = Some(key);
        true
    }
}

/// Like [`decide_vertex_lbc`] but running on pooled [`LbcScratch`] state:
/// bit-identical decision and certificate, allocation-free apart from the
/// `YES` certificate itself, and first rounds shared across same-source
/// candidates (see [`LbcScratch`]).
///
/// # Panics
///
/// Panics if `u` or `v` is out of range for `graph`.
#[must_use]
pub fn decide_vertex_lbc_with(
    scratch: &mut LbcScratch,
    graph: &Graph,
    u: VertexId,
    v: VertexId,
    t: u32,
    alpha: u32,
) -> (LbcDecision, LbcStats) {
    let mut stats = LbcStats::default();
    if scratch.ensure_tree(graph, u, t) {
        stats.bfs_runs += 1;
    }
    let LbcScratch {
        faults,
        search,
        tree,
        path,
        cut_vertices,
        ..
    } = scratch;
    if tree.tree_dist(v).is_none() {
        // No u–v path of ≤ t hops exists with zero faults applied: the
        // from-scratch first round would answer YES with the empty cut.
        return (LbcDecision::Yes(FaultSet::vertices([])), stats);
    }
    cut_vertices.clear();
    let mut view = faults.view(graph);
    for round in 0..=alpha {
        let found = if round == 0 {
            tree.tree_path_into(v, path)
        } else {
            stats.bfs_runs += 1;
            search.find_path_into(&view, u, v, t, path)
        };
        if !found {
            return (
                LbcDecision::Yes(FaultSet::vertices(cut_vertices.iter().copied())),
                stats,
            );
        }
        for &x in path.interior_vertices() {
            if view.block_vertex(x) {
                cut_vertices.push(x);
                stats.cut_size += 1;
            }
        }
        if path.hop_count() <= 1 {
            return (LbcDecision::No, stats);
        }
    }
    (LbcDecision::No, stats)
}

/// Like [`decide_edge_lbc`] but running on pooled [`LbcScratch`] state; see
/// [`decide_vertex_lbc_with`].
///
/// # Panics
///
/// Panics if `u` or `v` is out of range for `graph`.
#[must_use]
fn decide_edge_lbc_with(
    scratch: &mut LbcScratch,
    graph: &Graph,
    u: VertexId,
    v: VertexId,
    t: u32,
    alpha: u32,
) -> (LbcDecision, LbcStats) {
    let mut stats = LbcStats::default();
    if scratch.ensure_tree(graph, u, t) {
        stats.bfs_runs += 1;
    }
    let LbcScratch {
        faults,
        search,
        tree,
        path,
        cut_edges,
        ..
    } = scratch;
    if tree.tree_dist(v).is_none() {
        return (LbcDecision::Yes(FaultSet::edges([])), stats);
    }
    cut_edges.clear();
    let mut view = faults.view(graph);
    for round in 0..=alpha {
        let found = if round == 0 {
            tree.tree_path_into(v, path)
        } else {
            stats.bfs_runs += 1;
            search.find_path_into(&view, u, v, t, path)
        };
        if !found {
            return (
                LbcDecision::Yes(FaultSet::edges(cut_edges.iter().copied())),
                stats,
            );
        }
        for &e in &path.edges {
            if view.block_edge(e) {
                cut_edges.push(e);
                stats.cut_size += 1;
            }
        }
    }
    (LbcDecision::No, stats)
}

/// Like [`decide_lbc`] but running on pooled [`LbcScratch`] state; see
/// [`LbcScratch`] for what is reused and why the results are bit-identical.
///
/// # Panics
///
/// Panics if `u` or `v` is out of range for `graph`.
#[must_use]
pub fn decide_lbc_with(
    scratch: &mut LbcScratch,
    graph: &Graph,
    model: FaultModel,
    u: VertexId,
    v: VertexId,
    t: u32,
    alpha: u32,
) -> (LbcDecision, LbcStats) {
    match model {
        FaultModel::Vertex => decide_vertex_lbc_with(scratch, graph, u, v, t, alpha),
        FaultModel::Edge => decide_edge_lbc_with(scratch, graph, u, v, t, alpha),
    }
}

/// Checks whether a fault set really is a length-`t` cut for `(u, v)`:
/// after removing it, no `u`–`v` path of at most `t` hops remains.
///
/// Used in tests and by the verifier to validate YES certificates.
#[must_use]
pub fn is_length_bounded_cut(
    graph: &Graph,
    cut: &FaultSet,
    u: VertexId,
    v: VertexId,
    t: u32,
) -> bool {
    if cut.contains_vertex(u) || cut.contains_vertex(v) {
        return false;
    }
    let view = cut.apply(graph);
    shortest_hop_path_within(&view, u, v, t).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generators, vid, GraphBuilder};

    /// Two internally-disjoint u-v paths of length 2, plus one of length 4.
    fn theta_graph() -> Graph {
        //      1       2
        //    /   \   /   \
        //  0       (through 1 and 2 separately)       5
        //    \ 3 - 4 - (long path) /
        GraphBuilder::new()
            .unit_edges([
                (0, 1),
                (1, 5),
                (0, 2),
                (2, 5),
                (0, 3),
                (3, 4),
                (4, 6),
                (6, 5),
            ])
            .build()
    }

    #[test]
    fn yes_when_no_short_path_exists_at_all() {
        let g = generators::path(6); // 0-1-2-3-4-5: the only 0-5 path has 5 hops
        let (d, stats) = decide_vertex_lbc(&g, vid(0), vid(5), 3, 2);
        match d {
            LbcDecision::Yes(cut) => assert!(cut.is_empty()),
            LbcDecision::No => panic!("expected YES"),
        }
        assert_eq!(stats.bfs_runs, 1);
    }

    #[test]
    fn yes_certificate_is_a_real_cut() {
        let g = theta_graph();
        // Two 2-hop paths (through 1 and through 2); with alpha = 2 the
        // algorithm can delete both midpoints and certify a cut for t = 2.
        let (d, _) = decide_vertex_lbc(&g, vid(0), vid(5), 2, 2);
        let cut = d.certificate().expect("expected YES").clone();
        assert!(cut.len() <= 2 * 2);
        assert!(is_length_bounded_cut(&g, &cut, vid(0), vid(5), 2));
    }

    #[test]
    fn no_when_terminals_are_adjacent_in_vertex_model() {
        let mut g = generators::path(3);
        g.add_unit_edge(0, 2);
        // Direct edge {0,2} cannot be hit by vertex faults.
        let (d, _) = decide_vertex_lbc(&g, vid(0), vid(2), 3, 5);
        assert_eq!(d, LbcDecision::No);
    }

    #[test]
    fn edge_model_can_cut_a_direct_edge() {
        let mut g = generators::path(3);
        g.add_unit_edge(0, 2);
        // Edge faults can remove both the direct edge and the 2-hop path.
        let (d, _) = decide_edge_lbc(&g, vid(0), vid(2), 2, 2);
        let cut = d.certificate().expect("expected YES");
        assert!(cut.len() <= 4);
        assert!(is_length_bounded_cut(&g, cut, vid(0), vid(2), 2));
    }

    #[test]
    fn no_when_many_disjoint_short_paths_exist() {
        // Complete bipartite-ish: u and v joined by 6 disjoint 2-hop paths.
        let mut builder = GraphBuilder::new().vertices(8);
        for mid in 2..8 {
            builder = builder.unit_edge(0, mid).unit_edge(mid, 1);
        }
        let g = builder.build();
        // alpha = 2: after deleting 3 midpoints (one per round), a short path
        // remains, so the answer must be NO (soundness direction of Thm 4:
        // there IS a cut of size 6 but none of size <= 2).
        let (d, stats) = decide_vertex_lbc(&g, vid(0), vid(1), 2, 2);
        assert_eq!(d, LbcDecision::No);
        assert_eq!(stats.bfs_runs, 3);
    }

    #[test]
    fn yes_promise_is_honoured() {
        // Theorem 4 (completeness): whenever a cut of size <= alpha exists the
        // algorithm must answer YES. Exercise it on graphs where the optimal
        // cut is known by construction.
        for paths in 1..5u32 {
            // `paths` disjoint 3-hop u-v paths: optimal vertex cut = paths.
            let mut builder = GraphBuilder::new();
            let u = 0usize;
            let v = 1usize;
            let mut next = 2usize;
            for _ in 0..paths {
                builder = builder
                    .unit_edge(u, next)
                    .unit_edge(next, next + 1)
                    .unit_edge(next + 1, v);
                next += 2;
            }
            let g = builder.build();
            let (d, _) = decide_vertex_lbc(&g, vid(0), vid(1), 3, paths);
            assert!(d.is_yes(), "expected YES with alpha = {paths}");
            let cut = d.certificate().unwrap();
            assert!(is_length_bounded_cut(&g, cut, vid(0), vid(1), 3));
        }
    }

    #[test]
    fn bfs_budget_respects_alpha_plus_one() {
        let g = generators::complete(20);
        let (_, stats) = decide_vertex_lbc(&g, vid(0), vid(1), 3, 7);
        assert!(stats.bfs_runs <= 8);
    }

    #[test]
    fn cut_size_bound_matches_theorem_4() {
        // The YES certificate has at most alpha * (t - 1) interior vertices.
        let g = generators::grid(6, 6);
        for t in [3u32, 5] {
            for alpha in [1u32, 2, 3] {
                let (d, stats) = decide_vertex_lbc(&g, vid(0), vid(35), t, alpha);
                if let LbcDecision::Yes(cut) = d {
                    assert!(cut.len() <= (alpha * (t - 1)) as usize);
                    assert_eq!(cut.len(), stats.cut_size);
                }
            }
        }
    }

    #[test]
    fn dispatch_by_model() {
        let g = theta_graph();
        let (dv, _) = decide_lbc(&g, FaultModel::Vertex, vid(0), vid(5), 2, 2);
        let (de, _) = decide_lbc(&g, FaultModel::Edge, vid(0), vid(5), 2, 2);
        assert!(dv.is_yes());
        assert!(de.is_yes());
        assert_eq!(dv.certificate().unwrap().model(), FaultModel::Vertex);
        assert_eq!(de.certificate().unwrap().model(), FaultModel::Edge);
    }

    #[test]
    fn scratch_decisions_match_from_scratch_on_fixture_graphs() {
        let graphs = [
            theta_graph(),
            generators::path(6),
            generators::grid(5, 5),
            generators::complete(12),
        ];
        let mut scratch = LbcScratch::new();
        for g in &graphs {
            let n = g.vertex_count();
            for model in [FaultModel::Vertex, FaultModel::Edge] {
                for (u, v) in [(0usize, 1usize), (0, n - 1), (1, n / 2), (n - 1, 0)] {
                    if u == v {
                        continue;
                    }
                    for (t, alpha) in [(2u32, 1u32), (3, 2), (5, 0)] {
                        let (reference, _) = decide_lbc(g, model, vid(u), vid(v), t, alpha);
                        let (pooled, stats) =
                            decide_lbc_with(&mut scratch, g, model, vid(u), vid(v), t, alpha);
                        assert_eq!(pooled, reference);
                        assert!(stats.bfs_runs <= (alpha + 1) as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn shared_tree_saves_first_round_passes_for_same_source_candidates() {
        // From one source, consecutive decisions reuse the first-round tree:
        // only the first decision pays its BFS pass.
        let g = generators::complete(10);
        let mut scratch = LbcScratch::new();
        let (_, first) = decide_vertex_lbc_with(&mut scratch, &g, vid(0), vid(1), 3, 1);
        let (_, second) = decide_vertex_lbc_with(&mut scratch, &g, vid(0), vid(2), 3, 1);
        assert!(
            second.bfs_runs < first.bfs_runs,
            "second same-source decision must reuse the shared tree \
             (first: {}, second: {})",
            first.bfs_runs,
            second.bfs_runs
        );
        // A decision answered entirely from the tree runs no BFS at all:
        // unreachable-within-t targets are immediate YES.
        let far = generators::path(8);
        let mut scratch = LbcScratch::new();
        let (d, warm) = decide_vertex_lbc_with(&mut scratch, &far, vid(0), vid(6), 2, 3);
        assert!(d.is_yes());
        assert_eq!(warm.bfs_runs, 1); // builds the tree
        let (d, cold) = decide_vertex_lbc_with(&mut scratch, &far, vid(0), vid(7), 2, 3);
        assert!(d.is_yes());
        assert_eq!(cold.bfs_runs, 0, "answered from the shared tree");
    }

    #[test]
    fn scratch_tree_invalidates_when_the_graph_grows() {
        let mut g = generators::path(4); // 0-1-2-3
        let mut scratch = LbcScratch::new();
        // 0-3 is 3 hops; with t = 2 it is unreachable => YES.
        let (d, _) = decide_vertex_lbc_with(&mut scratch, &g, vid(0), vid(3), 2, 1);
        assert!(d.is_yes());
        // Adding a chord makes 0-3 reachable in 2 hops; the cached tree must
        // not leak through the mutation.
        g.add_unit_edge(1, 3);
        let (d, _) = decide_vertex_lbc_with(&mut scratch, &g, vid(0), vid(3), 2, 1);
        let (reference, _) = decide_vertex_lbc(&g, vid(0), vid(3), 2, 1);
        assert_eq!(d, reference);
    }

    #[test]
    fn cut_containing_a_terminal_is_not_valid() {
        let g = generators::path(3);
        let cut = FaultSet::vertices([vid(0)]);
        assert!(!is_length_bounded_cut(&g, &cut, vid(0), vid(2), 1));
    }
}
