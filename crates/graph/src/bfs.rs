//! Breadth-first search on graph views: hop distances and hop-bounded paths.
//!
//! BFS is the workhorse of the paper's polynomial-time algorithm: the
//! Length-Bounded Cut approximation (Algorithm 2) repeatedly asks for a path
//! of at most `t` hops between two terminals in the current spanner with a
//! growing fault set applied, which is exactly [`shortest_hop_path_within`].

use std::collections::VecDeque;

use crate::{EdgeId, GraphView, VertexId};

/// A simple (vertex- and edge-listing) path found by BFS.
///
/// `vertices` always starts at the source and ends at the target;
/// `edges[i]` connects `vertices[i]` and `vertices[i + 1]`, so
/// `edges.len() == vertices.len() - 1` and the hop length of the path is
/// `edges.len()`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HopPath {
    /// Vertices along the path, source first, target last.
    pub vertices: Vec<VertexId>,
    /// Edges along the path, in order.
    pub edges: Vec<EdgeId>,
}

impl HopPath {
    /// Number of edges (hops) on the path.
    #[must_use]
    pub fn hop_count(&self) -> usize {
        self.edges.len()
    }

    /// Interior vertices of the path (everything except the two endpoints).
    ///
    /// These are exactly the vertices that the Length-Bounded Cut
    /// approximation adds to its growing fault set.
    #[must_use]
    pub fn interior_vertices(&self) -> &[VertexId] {
        if self.vertices.len() <= 2 {
            &[]
        } else {
            &self.vertices[1..self.vertices.len() - 1]
        }
    }

    /// Total weight of the path under the given view.
    #[must_use]
    pub fn total_weight<V: GraphView>(&self, view: &V) -> f64 {
        self.edges.iter().map(|&e| view.edge_weight(e)).sum()
    }
}

/// Computes hop (unweighted) distances from `source` to every vertex.
///
/// Returns a vector indexed by vertex id; unreachable or faulted vertices map
/// to `None`. If `source` itself is faulted every entry is `None`.
///
/// # Examples
///
/// ```
/// use ftspan_graph::{bfs::bfs_hop_distances, vid, Graph};
///
/// let mut g = Graph::new(4);
/// g.add_unit_edge(0, 1);
/// g.add_unit_edge(1, 2);
/// let dist = bfs_hop_distances(&g, vid(0));
/// assert_eq!(dist[2], Some(2));
/// assert_eq!(dist[3], None);
/// ```
#[must_use]
pub fn bfs_hop_distances<V: GraphView>(view: &V, source: VertexId) -> Vec<Option<u32>> {
    let n = view.vertex_count();
    let mut dist = vec![None; n];
    if !view.contains_vertex(source) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued vertex must have a distance");
        for (v, _) in view.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Hop distance between `source` and `target`, or `None` if disconnected (or
/// either endpoint is faulted).
#[must_use]
pub fn hop_distance<V: GraphView>(view: &V, source: VertexId, target: VertexId) -> Option<u32> {
    if !view.contains_vertex(source) || !view.contains_vertex(target) {
        return None;
    }
    if source == target {
        return Some(0);
    }
    // Early-exit BFS.
    let n = view.vertex_count();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued vertex must have a distance");
        for (v, _) in view.neighbors(u) {
            if dist[v.index()].is_none() {
                if v == target {
                    return Some(du + 1);
                }
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    None
}

/// Finds a shortest (by hop count) path from `source` to `target`, or `None`
/// if no path exists in the view.
#[must_use]
pub fn shortest_hop_path<V: GraphView>(
    view: &V,
    source: VertexId,
    target: VertexId,
) -> Option<HopPath> {
    shortest_hop_path_within(view, source, target, u32::MAX)
}

/// Finds a shortest hop path of at most `max_hops` edges from `source` to
/// `target`, or `None` if every path needs more than `max_hops` hops (or the
/// endpoints are disconnected / faulted).
///
/// The search stops expanding once the BFS frontier exceeds `max_hops`, so the
/// running time is `O(m + n)` in the worst case but typically much less for
/// small `max_hops` — this is the primitive called `O(α)` times per edge by
/// the paper's Algorithm 2.
#[must_use]
pub fn shortest_hop_path_within<V: GraphView>(
    view: &V,
    source: VertexId,
    target: VertexId,
    max_hops: u32,
) -> Option<HopPath> {
    // One implementation serves both this one-shot form and the pooled
    // [`HopBfsScratch`] form — their exact agreement is a load-bearing
    // contract for the incremental LBC engine, so there is nothing to
    // drift.
    let mut path = HopPath::default();
    HopBfsScratch::new()
        .find_path_into(view, source, target, max_hops, &mut path)
        .then_some(path)
}

/// Computes the eccentricity (maximum hop distance to any reachable vertex)
/// of `source`, ignoring unreachable vertices. Returns `None` if `source` is
/// faulted.
#[must_use]
pub fn eccentricity<V: GraphView>(view: &V, source: VertexId) -> Option<u32> {
    if !view.contains_vertex(source) {
        return None;
    }
    Some(
        bfs_hop_distances(view, source)
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0),
    )
}

/// Reusable buffers for repeated hop-bounded BFS runs.
///
/// Repair and serving layers run a BFS per damaged element to collect the
/// affected neighbourhood; a scratch instance keeps the distance array and
/// queue allocations alive across those runs (resizing to each view's vertex
/// count), mirroring [`crate::dijkstra::DijkstraScratch`] for the unweighted
/// case. Like the other pooled lanes it walks the raw adjacency and checks
/// its own distance array before [`GraphView::admits`], with a flat FIFO.
///
/// # Examples
///
/// ```
/// use ftspan_graph::bfs::BfsScratch;
/// use ftspan_graph::{vid, Graph};
///
/// let mut g = Graph::new(4);
/// g.add_unit_edge(0, 1);
/// g.add_unit_edge(1, 2);
/// g.add_unit_edge(2, 3);
/// let mut scratch = BfsScratch::new();
/// let dist = scratch.hop_distances_within(&g, vid(0), 2);
/// assert_eq!(dist[2], Some(2));
/// assert_eq!(dist[3], None); // beyond the hop budget
/// ```
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    dist: Vec<Option<u32>>,
    /// Flat FIFO read from a head index: every vertex enters at most once.
    queue: Vec<VertexId>,
}

impl BfsScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes hop distances from `source`, exploring at most `max_hops`
    /// levels. Vertices farther than the budget (or unreachable, or faulted)
    /// map to `None`. The returned slice borrows the scratch and is valid
    /// until the next run.
    pub fn hop_distances_within<V: GraphView>(
        &mut self,
        view: &V,
        source: VertexId,
        max_hops: u32,
    ) -> &[Option<u32>] {
        self.multi_source_hop_distances(view, [source], max_hops)
    }

    /// Computes hop distances from the nearest of several sources (the
    /// "ball around the damage" primitive of repair layers), exploring at
    /// most `max_hops` levels. Out-of-range, faulted, and duplicate seeds
    /// are ignored. The returned slice borrows the scratch and is valid
    /// until the next run.
    pub fn multi_source_hop_distances<V, I>(
        &mut self,
        view: &V,
        sources: I,
        max_hops: u32,
    ) -> &[Option<u32>]
    where
        V: GraphView,
        I: IntoIterator<Item = VertexId>,
    {
        let n = view.vertex_count();
        self.dist.clear();
        self.dist.resize(n, None);
        self.queue.clear();
        for s in sources {
            if s.index() < n && view.contains_vertex(s) && self.dist[s.index()].is_none() {
                self.dist[s.index()] = Some(0);
                self.queue.push(s);
            }
        }
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[u.index()].expect("queued vertex must have a distance");
            if du >= max_hops {
                continue;
            }
            for (v, e) in view.raw_neighbors(u) {
                if self.dist[v.index()].is_none() && view.admits(v, e) {
                    self.dist[v.index()] = Some(du + 1);
                    self.queue.push(v);
                }
            }
        }
        &self.dist
    }
}

/// Reusable buffers for repeated hop-bounded *path* searches, plus a
/// batched same-source mode.
///
/// [`shortest_hop_path_within`] allocates a distance array, a parent array,
/// a queue, and two path vectors per call — `O(n)` setup for searches whose
/// useful work is often a small ball. The Length-Bounded Cut decision runs
/// up to `α + 1` such searches *per candidate edge*, so a repair wave pays
/// that setup thousands of times. This scratch keeps every buffer alive
/// across searches and clears in `O(1)` via epoch stamps.
///
/// Two modes are provided:
///
/// * [`HopBfsScratch::find_path_into`] — one early-exit search, reusing the
///   buffers; the found path is bit-identical to
///   [`shortest_hop_path_within`]'s.
/// * [`HopBfsScratch::build_tree`] + [`HopBfsScratch::tree_path_into`] — one
///   hop-bounded BFS **tree** from a source, from which paths to *many*
///   targets can be extracted without further traversals. This is the
///   batched primitive behind the incremental LBC engine: consecutive
///   candidates sharing a source (and an unchanged graph) are all decided
///   against one pass.
///
/// Bit-identity of the two modes: BFS assigns each vertex its parent at
/// first discovery and never reassigns it, and the discovery order is fully
/// determined by the view's neighbor order. The early-exit search merely
/// stops expanding once the target is discovered, so every vertex discovered
/// before that point — in particular the whole parent chain of the target —
/// carries exactly the parent the full tree records. Paths extracted from
/// either mode are therefore identical, which is what lets the incremental
/// engine swap one for the other without changing any decision.
///
/// Both modes walk the view's raw adjacency
/// ([`GraphView::raw_neighbors`]) and test `!discovered(v)` before
/// [`GraphView::admits`]: a neighbour already reached costs one epoch-mark
/// read instead of the fault-mask loads. The two tests are side-effect
/// free, so the discovered vertices, their order and their parents are
/// exactly those of a loop over [`GraphView::neighbors`], and every path
/// (and every LBC decision built on one) stays bit-identical. The FIFO is
/// a flat vector read from a head index.
#[derive(Clone, Debug, Default)]
pub struct HopBfsScratch {
    /// Set ⇔ the vertex was discovered by the current search.
    mark: crate::EpochMarks,
    dist: Vec<u32>,
    parent_vertex: Vec<u32>,
    parent_edge: Vec<u32>,
    /// Flat FIFO of the current search, read from a head index.
    queue: Vec<VertexId>,
    /// Source of the tree currently held (see [`HopBfsScratch::build_tree`]).
    tree_source: Option<VertexId>,
}

impl HopBfsScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new search: bumps the mark epoch (O(1) clear) and resizes
    /// the per-vertex arrays for `n` vertices.
    fn begin(&mut self, n: usize) {
        self.mark.begin(n);
        let backed = self.mark.len();
        if self.dist.len() < backed {
            self.dist.resize(backed, 0);
            self.parent_vertex.resize(backed, 0);
            self.parent_edge.resize(backed, 0);
        }
        self.queue.clear();
        self.tree_source = None;
    }

    #[inline]
    fn discovered(&self, v: VertexId) -> bool {
        self.mark.is_set(v.index())
    }

    #[inline]
    fn discover(&mut self, v: VertexId, dist: u32, parent: Option<(VertexId, EdgeId)>) {
        let i = v.index();
        self.mark.set(i);
        self.dist[i] = dist;
        if let Some((pv, pe)) = parent {
            self.parent_vertex[i] = pv.as_u32();
            self.parent_edge[i] = pe.index() as u32;
        }
    }

    /// Finds a shortest hop path of at most `max_hops` edges from `source`
    /// to `target`, writing it into `out` and returning `true`, or returns
    /// `false` when no such path exists. The search and the found path are
    /// bit-identical to [`shortest_hop_path_within`]; only the storage is
    /// pooled.
    pub fn find_path_into<V: GraphView>(
        &mut self,
        view: &V,
        source: VertexId,
        target: VertexId,
        max_hops: u32,
        out: &mut HopPath,
    ) -> bool {
        out.vertices.clear();
        out.edges.clear();
        if !view.contains_vertex(source) || !view.contains_vertex(target) {
            return false;
        }
        if source == target {
            out.vertices.push(source);
            return true;
        }
        if max_hops == 0 {
            return false;
        }
        self.begin(view.vertex_count());
        self.discover(source, 0, None);
        self.queue.push(source);
        let mut head = 0;
        'search: while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[u.index()];
            if du >= max_hops {
                continue;
            }
            for (v, e) in view.raw_neighbors(u) {
                if !self.discovered(v) && view.admits(v, e) {
                    self.discover(v, du + 1, Some((u, e)));
                    if v == target {
                        break 'search;
                    }
                    self.queue.push(v);
                }
            }
        }
        if !self.discovered(target) {
            return false;
        }
        self.reconstruct_into(source, target, out);
        true
    }

    /// Runs one hop-bounded BFS from `source`, keeping the whole tree in the
    /// scratch. Afterwards [`HopBfsScratch::tree_dist`] answers the hop
    /// distance to every vertex and [`HopBfsScratch::tree_path_into`]
    /// extracts paths — this is the "decide several same-source candidates
    /// per pass" primitive. The tree is valid until the next search on this
    /// scratch.
    pub fn build_tree<V: GraphView>(&mut self, view: &V, source: VertexId, max_hops: u32) {
        self.begin(view.vertex_count());
        if !view.contains_vertex(source) {
            return;
        }
        self.discover(source, 0, None);
        self.tree_source = Some(source);
        self.queue.push(source);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[u.index()];
            if du >= max_hops {
                continue;
            }
            for (v, e) in view.raw_neighbors(u) {
                if !self.discovered(v) && view.admits(v, e) {
                    self.discover(v, du + 1, Some((u, e)));
                    self.queue.push(v);
                }
            }
        }
    }

    /// Source of the currently held tree, if any.
    #[must_use]
    pub fn tree_source(&self) -> Option<VertexId> {
        self.tree_source
    }

    /// Hop distance from the tree's source to `v`, or `None` when `v` was
    /// out of the hop budget (or unreachable, or faulted, or no tree is
    /// held).
    #[must_use]
    pub fn tree_dist(&self, v: VertexId) -> Option<u32> {
        self.tree_source?;
        (v.index() < self.mark.len() && self.discovered(v)).then(|| self.dist[v.index()])
    }

    /// Extracts the tree path from the source to `target` into `out`,
    /// returning `true` on success (`false` when `target` is outside the
    /// tree). The path equals the one an early-exit search
    /// ([`HopBfsScratch::find_path_into`] / [`shortest_hop_path_within`])
    /// from the same source would find.
    pub fn tree_path_into(&self, target: VertexId, out: &mut HopPath) -> bool {
        out.vertices.clear();
        out.edges.clear();
        let Some(source) = self.tree_source else {
            return false;
        };
        if target.index() >= self.mark.len() || !self.discovered(target) {
            return false;
        }
        if source == target {
            out.vertices.push(source);
            return true;
        }
        self.reconstruct_into(source, target, out);
        true
    }

    /// Walks parent pointers from `target` back to `source`, writing the
    /// forward-ordered path into `out`.
    fn reconstruct_into(&self, source: VertexId, target: VertexId, out: &mut HopPath) {
        out.vertices.push(target);
        let mut cur = target;
        while cur != source {
            let prev = VertexId::new(self.parent_vertex[cur.index()] as usize);
            out.edges
                .push(EdgeId::new(self.parent_edge[cur.index()] as usize));
            out.vertices.push(prev);
            cur = prev;
        }
        out.vertices.reverse();
        out.edges.reverse();
        debug_assert_eq!(out.vertices.len(), out.edges.len() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vid, FaultView, Graph};

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_unit_edge(i, i + 1);
        }
        g
    }

    fn grid3x3() -> Graph {
        // 0 1 2
        // 3 4 5
        // 6 7 8
        let mut g = Graph::new(9);
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    g.add_unit_edge(i, i + 1);
                }
                if r + 1 < 3 {
                    g.add_unit_edge(i, i + 3);
                }
            }
        }
        g
    }

    #[test]
    fn distances_on_a_path() {
        let g = path_graph(5);
        let dist = bfs_hop_distances(&g, vid(0));
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn unreachable_vertices_have_no_distance() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        let dist = bfs_hop_distances(&g, vid(0));
        assert_eq!(dist[2], None);
        assert_eq!(dist[3], None);
    }

    #[test]
    fn faulted_source_yields_all_none() {
        let g = path_graph(3);
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(0));
        let dist = bfs_hop_distances(&view, vid(0));
        assert!(dist.iter().all(Option::is_none));
        assert_eq!(hop_distance(&view, vid(0), vid(2)), None);
        assert_eq!(eccentricity(&view, vid(0)), None);
    }

    #[test]
    fn hop_distance_matches_full_bfs() {
        let g = grid3x3();
        for s in 0..9 {
            let dist = bfs_hop_distances(&g, vid(s));
            for (t, &expected) in dist.iter().enumerate() {
                assert_eq!(hop_distance(&g, vid(s), vid(t)), expected);
            }
        }
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = grid3x3();
        let p = shortest_hop_path(&g, vid(0), vid(8)).unwrap();
        assert_eq!(p.hop_count(), 4);
        assert_eq!(p.vertices.first(), Some(&vid(0)));
        assert_eq!(p.vertices.last(), Some(&vid(8)));
        // Consecutive vertices are connected by the listed edges.
        for (i, &e) in p.edges.iter().enumerate() {
            let (a, b) = g.edge(e).endpoints();
            let (x, y) = (p.vertices[i], p.vertices[i + 1]);
            assert!((a, b) == (x, y) || (a, b) == (y, x));
        }
    }

    #[test]
    fn trivial_path_when_source_equals_target() {
        let g = path_graph(3);
        let p = shortest_hop_path(&g, vid(1), vid(1)).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.vertices, vec![vid(1)]);
        assert!(p.interior_vertices().is_empty());
    }

    #[test]
    fn hop_bound_excludes_long_paths() {
        let g = path_graph(6);
        assert!(shortest_hop_path_within(&g, vid(0), vid(5), 5).is_some());
        assert!(shortest_hop_path_within(&g, vid(0), vid(5), 4).is_none());
        assert!(shortest_hop_path_within(&g, vid(0), vid(5), 0).is_none());
        assert!(shortest_hop_path_within(&g, vid(0), vid(0), 0).is_some());
    }

    #[test]
    fn hop_bound_finds_detour_only_if_within_budget() {
        // Square 0-1-2-3-0 plus a chord 0-2: removing the chord forces 2 hops.
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(1, 2);
        g.add_unit_edge(2, 3);
        g.add_unit_edge(3, 0);
        let chord = g.add_unit_edge(0, 2);
        let mut view = FaultView::new(&g);
        view.block_edge(chord);
        let p = shortest_hop_path_within(&view, vid(0), vid(2), 2).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert!(shortest_hop_path_within(&view, vid(0), vid(2), 1).is_none());
    }

    #[test]
    fn interior_vertices_excludes_endpoints() {
        let g = path_graph(4);
        let p = shortest_hop_path(&g, vid(0), vid(3)).unwrap();
        assert_eq!(p.interior_vertices(), &[vid(1), vid(2)]);
        let p = shortest_hop_path(&g, vid(0), vid(1)).unwrap();
        assert!(p.interior_vertices().is_empty());
    }

    #[test]
    fn path_respects_vertex_faults() {
        let g = grid3x3();
        let mut view = FaultView::new(&g);
        // Block the middle column.
        view.block_vertex(vid(1));
        view.block_vertex(vid(4));
        view.block_vertex(vid(7));
        assert!(shortest_hop_path(&view, vid(0), vid(2)).is_none());
        assert_eq!(hop_distance(&view, vid(0), vid(6)), Some(2));
    }

    #[test]
    fn path_total_weight_uses_view_weights() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 3.0);
        let p = shortest_hop_path(&g, vid(0), vid(2)).unwrap();
        assert!((p.total_weight(&g) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eccentricity_of_path_endpoints() {
        let g = path_graph(5);
        assert_eq!(eccentricity(&g, vid(0)), Some(4));
        assert_eq!(eccentricity(&g, vid(2)), Some(2));
    }

    #[test]
    fn bfs_scratch_matches_unbounded_bfs_within_budget() {
        let g = grid3x3();
        let mut scratch = BfsScratch::new();
        let bounded = scratch.hop_distances_within(&g, vid(0), u32::MAX).to_vec();
        assert_eq!(bounded, bfs_hop_distances(&g, vid(0)));
    }

    #[test]
    fn bfs_scratch_respects_hop_budget_and_faults() {
        let g = path_graph(6);
        let mut scratch = BfsScratch::new();
        let dist = scratch.hop_distances_within(&g, vid(0), 3);
        assert_eq!(dist[3], Some(3));
        assert_eq!(dist[4], None);

        let mut view = FaultView::new(&g);
        view.block_vertex(vid(2));
        let dist = scratch.hop_distances_within(&view, vid(0), 5);
        assert_eq!(dist[1], Some(1));
        assert_eq!(dist[2], None);
        assert_eq!(dist[3], None);

        // Faulted source yields all-None.
        let dist = scratch.hop_distances_within(&view, vid(2), 5);
        assert!(dist.iter().all(Option::is_none));
    }

    #[test]
    fn multi_source_bfs_takes_nearest_seed_distance() {
        let g = path_graph(10); // 0-1-...-9
        let mut scratch = BfsScratch::new();
        let dist = scratch.multi_source_hop_distances(&g, [vid(0), vid(9)], 3);
        assert_eq!(dist[0], Some(0));
        assert_eq!(dist[9], Some(0));
        assert_eq!(dist[2], Some(2));
        assert_eq!(dist[7], Some(2));
        assert_eq!(dist[4], None); // 4 hops from either seed, budget 3
                                   // Out-of-range and duplicate seeds are tolerated; no seeds → all None.
        let dist = scratch.multi_source_hop_distances(&g, [vid(1), vid(1), vid(99)], 1);
        assert_eq!(dist[1], Some(0));
        assert_eq!(dist[2], Some(1));
        let dist = scratch.multi_source_hop_distances(&g, [], 5);
        assert!(dist.iter().all(Option::is_none));
    }

    #[test]
    fn hop_bfs_scratch_find_path_matches_free_function() {
        let g = grid3x3();
        let mut scratch = HopBfsScratch::new();
        let mut out = HopPath::default();
        for s in 0..9 {
            for t in 0..9 {
                for budget in [0u32, 1, 2, 4, u32::MAX] {
                    let reference = shortest_hop_path_within(&g, vid(s), vid(t), budget);
                    let found = scratch.find_path_into(&g, vid(s), vid(t), budget, &mut out);
                    assert_eq!(found, reference.is_some());
                    if let Some(p) = reference {
                        assert_eq!(out, p, "s={s} t={t} budget={budget}");
                    }
                }
            }
        }
        // Under faults too.
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(4));
        let reference = shortest_hop_path_within(&view, vid(0), vid(8), 6).unwrap();
        assert!(scratch.find_path_into(&view, vid(0), vid(8), 6, &mut out));
        assert_eq!(out, reference);
    }

    #[test]
    fn hop_bfs_tree_paths_equal_early_exit_paths() {
        // The batched mode's contract: a tree path to any target equals the
        // early-exit search's path from the same source.
        let g = grid3x3();
        let mut tree = HopBfsScratch::new();
        tree.build_tree(&g, vid(0), 3);
        assert_eq!(tree.tree_source(), Some(vid(0)));
        let mut out = HopPath::default();
        for t in 0..9 {
            let reference = shortest_hop_path_within(&g, vid(0), vid(t), 3);
            assert_eq!(
                tree.tree_dist(vid(t)),
                reference.as_ref().map(|p| p.hop_count() as u32)
            );
            let found = tree.tree_path_into(vid(t), &mut out);
            assert_eq!(found, reference.is_some());
            if let Some(p) = reference {
                assert_eq!(out, p);
            }
        }
    }

    #[test]
    fn hop_bfs_tree_respects_budget_and_faults() {
        let g = path_graph(6);
        let mut tree = HopBfsScratch::new();
        tree.build_tree(&g, vid(0), 3);
        assert_eq!(tree.tree_dist(vid(3)), Some(3));
        assert_eq!(tree.tree_dist(vid(4)), None);

        let mut view = FaultView::new(&g);
        view.block_vertex(vid(2));
        tree.build_tree(&view, vid(0), 5);
        assert_eq!(tree.tree_dist(vid(1)), Some(1));
        assert_eq!(tree.tree_dist(vid(3)), None);

        // Faulted source: empty tree.
        tree.build_tree(&view, vid(2), 5);
        assert_eq!(tree.tree_dist(vid(2)), None);
        let mut out = HopPath::default();
        assert!(!tree.tree_path_into(vid(2), &mut out));
    }

    #[test]
    fn hop_bfs_scratch_reuses_buffers_across_searches_and_sizes() {
        let small = path_graph(3);
        let big = path_graph(12);
        let mut scratch = HopBfsScratch::new();
        let mut out = HopPath::default();
        assert!(scratch.find_path_into(&big, vid(0), vid(11), 20, &mut out));
        assert_eq!(out.hop_count(), 11);
        assert!(scratch.find_path_into(&small, vid(2), vid(0), 20, &mut out));
        assert_eq!(out.hop_count(), 2);
        // A fresh search invalidates the previous tree.
        scratch.build_tree(&big, vid(0), 4);
        assert_eq!(scratch.tree_dist(vid(4)), Some(4));
        assert!(scratch.find_path_into(&big, vid(1), vid(2), 3, &mut out));
        assert_eq!(scratch.tree_source(), None);
        assert_eq!(scratch.tree_dist(vid(4)), None);
    }

    #[test]
    fn bfs_scratch_reuses_buffers_across_sizes() {
        let small = path_graph(3);
        let big = path_graph(12);
        let mut scratch = BfsScratch::new();
        assert_eq!(scratch.hop_distances_within(&big, vid(0), 20)[11], Some(11));
        let dist = scratch.hop_distances_within(&small, vid(0), 20);
        assert_eq!(dist.len(), 3);
        assert_eq!(dist[2], Some(2));
    }
}
