//! Fault sets: the sets `F` of failed vertices or edges that a fault-tolerant
//! spanner must survive.

use ftspan_graph::{EdgeId, FaultView, Graph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::FaultModel;

/// A concrete set of failed vertices or failed edges.
///
/// # Examples
///
/// ```
/// use ftspan::FaultSet;
/// use ftspan_graph::{vid, Graph, GraphView};
///
/// let mut g = Graph::new(4);
/// g.add_unit_edge(0, 1);
/// g.add_unit_edge(1, 2);
/// let faults = FaultSet::vertices([vid(1)]);
/// let view = faults.apply(&g);
/// assert_eq!(view.live_vertex_count(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultSet {
    /// A set of failed vertices.
    Vertices(Vec<VertexId>),
    /// A set of failed edges.
    Edges(Vec<EdgeId>),
}

impl FaultSet {
    /// Creates an empty fault set for the given model.
    #[must_use]
    pub fn empty(model: FaultModel) -> Self {
        match model {
            FaultModel::Vertex => FaultSet::Vertices(Vec::new()),
            FaultModel::Edge => FaultSet::Edges(Vec::new()),
        }
    }

    /// Creates a vertex fault set.
    #[must_use]
    pub fn vertices<I: IntoIterator<Item = VertexId>>(vertices: I) -> Self {
        let mut v: Vec<VertexId> = vertices.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        FaultSet::Vertices(v)
    }

    /// Creates an edge fault set.
    #[must_use]
    pub fn edges<I: IntoIterator<Item = EdgeId>>(edges: I) -> Self {
        let mut e: Vec<EdgeId> = edges.into_iter().collect();
        e.sort_unstable();
        e.dedup();
        FaultSet::Edges(e)
    }

    /// The fault model this set belongs to.
    #[must_use]
    pub fn model(&self) -> FaultModel {
        match self {
            FaultSet::Vertices(_) => FaultModel::Vertex,
            FaultSet::Edges(_) => FaultModel::Edge,
        }
    }

    /// Number of faults in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            FaultSet::Vertices(v) => v.len(),
            FaultSet::Edges(e) => e.len(),
        }
    }

    /// Returns `true` if no element is faulted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The faulted vertices, or an empty slice for an edge fault set.
    #[must_use]
    pub fn vertex_faults(&self) -> &[VertexId] {
        match self {
            FaultSet::Vertices(v) => v,
            FaultSet::Edges(_) => &[],
        }
    }

    /// The faulted edges, or an empty slice for a vertex fault set.
    #[must_use]
    pub fn edge_faults(&self) -> &[EdgeId] {
        match self {
            FaultSet::Vertices(_) => &[],
            FaultSet::Edges(e) => e,
        }
    }

    /// Returns `true` if the given vertex is faulted (always `false` for edge
    /// fault sets).
    #[must_use]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertex_faults().contains(&v)
    }

    /// Returns `true` if the given edge is faulted (always `false` for vertex
    /// fault sets).
    #[must_use]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edge_faults().contains(&e)
    }

    /// Applies this fault set to a graph, producing the view `G \ F`.
    ///
    /// Edge fault ids are read as ids of `graph` itself; to apply a set
    /// built on another graph, carry it over with
    /// [`FaultSet::translate_edges`] first. Vertex and edge ids out of range
    /// for `graph` are ignored (serving layers accept client-supplied fault
    /// sets that may be stale).
    #[must_use]
    pub fn apply<'g>(&self, graph: &'g Graph) -> FaultView<'g> {
        let mut view = FaultView::new(graph);
        match self {
            FaultSet::Vertices(vs) => {
                for &v in vs {
                    if v.index() < graph.vertex_count() {
                        view.block_vertex(v);
                    }
                }
            }
            FaultSet::Edges(es) => {
                for &e in es {
                    if e.index() < graph.edge_count() {
                        view.block_edge(e);
                    }
                }
            }
        }
        view
    }

    /// Re-expresses an edge fault set (whose ids refer to `source`) as edge
    /// ids of `target`, matching by endpoints and dropping edges `target`
    /// does not contain. Ids out of range for `source` are dropped too
    /// (mirroring the tolerance of [`FaultSet::apply`] — serving layers
    /// accept client-supplied fault sets that may be stale). Vertex fault
    /// sets are returned unchanged.
    #[must_use]
    pub fn translate_edges(&self, source: &Graph, target: &Graph) -> FaultSet {
        match self {
            FaultSet::Vertices(_) => self.clone(),
            FaultSet::Edges(es) => FaultSet::edges(es.iter().filter_map(|&e| {
                let (u, v) = source.get_edge(e)?.endpoints();
                target.edge_between(u, v)
            })),
        }
    }
}

/// Enumerates every fault set of size at most `max_size` over the given
/// universe of vertices, excluding the listed vertices (typically the two
/// terminals, which Definition 1 never allows to fail).
///
/// The number of sets is `sum_{i<=max_size} C(universe, i)`; callers are
/// expected to keep that small (exact greedy, exhaustive verification).
#[must_use]
pub fn enumerate_vertex_fault_sets(
    graph: &Graph,
    max_size: usize,
    exclude: &[VertexId],
) -> Vec<FaultSet> {
    let universe: Vec<VertexId> = graph.vertices().filter(|v| !exclude.contains(v)).collect();
    enumerate_subsets(&universe, max_size)
        .into_iter()
        .map(FaultSet::vertices)
        .collect()
}

/// Enumerates every edge fault set of size at most `max_size`, with edge ids
/// referring to `graph`.
#[must_use]
pub fn enumerate_edge_fault_sets(graph: &Graph, max_size: usize) -> Vec<FaultSet> {
    let universe: Vec<EdgeId> = graph.edge_ids().collect();
    enumerate_subsets(&universe, max_size)
        .into_iter()
        .map(FaultSet::edges)
        .collect()
}

/// Enumerates fault sets of size at most `max_size` for either model.
/// For the vertex model the `exclude` list is honoured; it is ignored for
/// edge faults.
#[must_use]
pub fn enumerate_fault_sets(
    graph: &Graph,
    model: FaultModel,
    max_size: usize,
    exclude: &[VertexId],
) -> Vec<FaultSet> {
    match model {
        FaultModel::Vertex => enumerate_vertex_fault_sets(graph, max_size, exclude),
        FaultModel::Edge => enumerate_edge_fault_sets(graph, max_size),
    }
}

/// Number of fault sets that [`enumerate_fault_sets`] would produce, computed
/// without materializing them (used to enforce enumeration budgets).
#[must_use]
pub fn count_fault_sets(universe: usize, max_size: usize) -> u128 {
    let mut total: u128 = 0;
    for i in 0..=max_size.min(universe) {
        total = total.saturating_add(binomial(universe as u128, i as u128));
    }
    total
}

fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

fn enumerate_subsets<T: Copy>(universe: &[T], max_size: usize) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new()];
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 1..=max_size.min(universe.len()) {
        let mut next = Vec::new();
        for combo in &frontier {
            let start = combo.last().map_or(0, |&i| i + 1);
            for j in start..universe.len() {
                let mut extended = combo.clone();
                extended.push(j);
                out.push(extended.iter().map(|&i| universe[i]).collect());
                next.push(extended);
            }
        }
        frontier = next;
    }
    out
}

/// Samples a uniformly random fault set of exactly `size` elements (or fewer
/// if the universe is smaller), excluding the listed vertices for the vertex
/// model.
#[must_use]
pub fn sample_fault_set<R: Rng + ?Sized>(
    graph: &Graph,
    model: FaultModel,
    size: usize,
    exclude: &[VertexId],
    rng: &mut R,
) -> FaultSet {
    match model {
        FaultModel::Vertex => {
            let mut universe: Vec<VertexId> =
                graph.vertices().filter(|v| !exclude.contains(v)).collect();
            universe.shuffle(rng);
            universe.truncate(size);
            FaultSet::vertices(universe)
        }
        FaultModel::Edge => {
            let mut universe: Vec<EdgeId> = graph.edge_ids().collect();
            universe.shuffle(rng);
            universe.truncate(size);
            FaultSet::edges(universe)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{eid, generators, vid, GraphView};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_deduplicates_and_sorts() {
        let f = FaultSet::vertices([vid(3), vid(1), vid(3)]);
        assert_eq!(f.vertex_faults(), &[vid(1), vid(3)]);
        assert_eq!(f.len(), 2);
        let f = FaultSet::edges([eid(2), eid(2), eid(0)]);
        assert_eq!(f.edge_faults(), &[eid(0), eid(2)]);
    }

    #[test]
    fn empty_sets_for_both_models() {
        assert!(FaultSet::empty(FaultModel::Vertex).is_empty());
        assert_eq!(
            FaultSet::empty(FaultModel::Vertex).model(),
            FaultModel::Vertex
        );
        assert_eq!(FaultSet::empty(FaultModel::Edge).model(), FaultModel::Edge);
    }

    #[test]
    fn membership_queries() {
        let f = FaultSet::vertices([vid(1), vid(2)]);
        assert!(f.contains_vertex(vid(1)));
        assert!(!f.contains_vertex(vid(5)));
        assert!(!f.contains_edge(eid(0)));
        let f = FaultSet::edges([eid(4)]);
        assert!(f.contains_edge(eid(4)));
        assert!(!f.contains_vertex(vid(4)));
    }

    #[test]
    fn apply_vertex_faults_blocks_them() {
        let g = generators::cycle(5);
        let view = FaultSet::vertices([vid(0), vid(2)]).apply(&g);
        assert_eq!(view.live_vertex_count(), 3);
        assert!(!view.contains_vertex(vid(0)));
        assert!(view.contains_vertex(vid(1)));
    }

    #[test]
    fn apply_edge_faults_blocks_them() {
        let g = generators::cycle(5);
        let e = g.edge_between(vid(0), vid(1)).unwrap();
        let view = FaultSet::edges([e]).apply(&g);
        assert!(!view.contains_edge(e));
        assert_eq!(view.live_vertex_count(), 5);
    }

    #[test]
    fn out_of_range_faults_are_ignored() {
        let g = generators::path(3);
        let view = FaultSet::vertices([vid(10)]).apply(&g);
        assert_eq!(view.live_vertex_count(), 3);
        let view = FaultSet::edges([eid(10)]).apply(&g);
        assert_eq!(view.blocked_edge_count(), 0);
    }

    #[test]
    fn translate_edges_matches_by_endpoints() {
        let g = generators::cycle(4);
        let mut h = Graph::new(4);
        h.add_unit_edge(1, 2);
        h.add_unit_edge(0, 1);
        let e_g = g.edge_between(vid(0), vid(1)).unwrap();
        let missing = g.edge_between(vid(2), vid(3)).unwrap();
        let f = FaultSet::edges([e_g, missing]);
        let t = f.translate_edges(&g, &h);
        assert_eq!(t.len(), 1);
        // Out-of-range source ids are dropped, not panicked on.
        let stale = FaultSet::edges([eid(999)]);
        assert!(stale.translate_edges(&g, &h).is_empty());
        let e_h = h.edge_between(vid(0), vid(1)).unwrap();
        assert!(t.contains_edge(e_h));
        // Vertex sets pass through untouched.
        let f = FaultSet::vertices([vid(2)]);
        assert_eq!(f.translate_edges(&g, &h), f);
    }

    #[test]
    fn enumeration_counts_match_binomials() {
        let g = generators::complete(5);
        // Vertex sets of size <= 2 excluding two terminals: C(3,0)+C(3,1)+C(3,2) = 7.
        let sets = enumerate_vertex_fault_sets(&g, 2, &[vid(0), vid(1)]);
        assert_eq!(sets.len(), 7);
        assert!(sets
            .iter()
            .all(|s| !s.contains_vertex(vid(0)) && !s.contains_vertex(vid(1))));
        // Edge sets of size <= 1 over 10 edges: 1 + 10.
        let sets = enumerate_edge_fault_sets(&g, 1);
        assert_eq!(sets.len(), 11);
        assert_eq!(count_fault_sets(3, 2), 7);
        assert_eq!(count_fault_sets(10, 1), 11);
    }

    #[test]
    fn enumeration_includes_empty_set_and_respects_model() {
        let g = generators::path(4);
        let sets = enumerate_fault_sets(&g, FaultModel::Vertex, 1, &[]);
        assert!(sets.iter().any(FaultSet::is_empty));
        assert_eq!(sets.len(), 1 + 4);
        let sets = enumerate_fault_sets(&g, FaultModel::Edge, 2, &[vid(0)]);
        assert_eq!(sets.len(), 1 + 3 + 3);
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let g = generators::complete(6);
        let sets = enumerate_vertex_fault_sets(&g, 3, &[]);
        let mut seen = std::collections::HashSet::new();
        for s in &sets {
            assert!(seen.insert(format!("{s:?}")), "duplicate fault set {s:?}");
        }
        assert_eq!(sets.len(), 1 + 6 + 15 + 20);
    }

    #[test]
    fn binomial_saturates_instead_of_overflowing() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(2, 5), 0);
        assert!(count_fault_sets(10_000, 20) > 0);
    }

    #[test]
    fn sampled_fault_sets_have_requested_size_and_respect_exclusions() {
        let g = generators::complete(10);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let s = sample_fault_set(&g, FaultModel::Vertex, 3, &[vid(0)], &mut rng);
            assert_eq!(s.len(), 3);
            assert!(!s.contains_vertex(vid(0)));
        }
        let s = sample_fault_set(&g, FaultModel::Edge, 4, &[], &mut rng);
        assert_eq!(s.len(), 4);
        // Requesting more faults than the universe clamps.
        let small = generators::path(3);
        let s = sample_fault_set(&small, FaultModel::Edge, 10, &[], &mut rng);
        assert_eq!(s.len(), 2);
    }
}
