//! Weighted shortest paths (Dijkstra) on graph views.
//!
//! The spanner *verifier* needs true weighted distances in `G \ F` and in
//! `H \ F` to check the stretch condition of Definition 1; the construction
//! algorithms themselves only ever use BFS (see [`crate::bfs`]).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{GraphView, VertexId};

/// The parent slot of a vertex that has none (the source, or unreached).
/// Free as a sentinel: graphs hold at most 2³² − 1 vertices (see
/// [`VertexId::new`]), so no vertex index equals `u32::MAX`.
const NO_PARENT: u32 = u32::MAX;

/// Entry in the Dijkstra priority queue (min-heap by distance).
#[derive(Copy, Clone, Debug, PartialEq)]
struct HeapEntry {
    distance: f64,
    vertex: VertexId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert the distance comparison to pop the
        // smallest tentative distance first. Ties break on vertex id so the
        // ordering is total even with equal distances.
        other
            .distance
            .total_cmp(&self.distance)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes weighted shortest-path distances from `source` to every vertex.
///
/// Returns a vector indexed by vertex id with `f64::INFINITY` for vertices
/// that are unreachable or faulted. Edge weights must be non-negative, which
/// the [`Graph`](crate::Graph) constructors enforce.
///
/// # Examples
///
/// ```
/// use ftspan_graph::{dijkstra::dijkstra_distances, vid, Graph};
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 2.0);
/// g.add_edge(1, 2, 3.0);
/// g.add_edge(0, 2, 10.0);
/// let dist = dijkstra_distances(&g, vid(0));
/// assert_eq!(dist[2], 5.0);
/// ```
#[must_use]
pub fn dijkstra_distances<V: GraphView>(view: &V, source: VertexId) -> Vec<f64> {
    let n = view.vertex_count();
    let mut dist = vec![f64::INFINITY; n];
    if !view.contains_vertex(source) {
        return dist;
    }
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        distance: 0.0,
        vertex: source,
    });
    while let Some(HeapEntry { distance, vertex }) = heap.pop() {
        if settled[vertex.index()] {
            continue;
        }
        settled[vertex.index()] = true;
        for (nbr, e) in view.neighbors(vertex) {
            let cand = distance + view.edge_weight(e);
            if cand < dist[nbr.index()] {
                dist[nbr.index()] = cand;
                heap.push(HeapEntry {
                    distance: cand,
                    vertex: nbr,
                });
            }
        }
    }
    dist
}

/// Weighted distance between two vertices, or `None` if disconnected (or an
/// endpoint is faulted).
#[must_use]
pub fn weighted_distance<V: GraphView>(
    view: &V,
    source: VertexId,
    target: VertexId,
) -> Option<f64> {
    if !view.contains_vertex(source) || !view.contains_vertex(target) {
        return None;
    }
    let d = dijkstra_distances(view, source)[target.index()];
    d.is_finite().then_some(d)
}

/// Computes a shortest weighted path, returning `(total weight, vertices)`.
///
/// Returns `None` if the target is unreachable or either endpoint is faulted.
#[must_use]
pub fn shortest_weighted_path<V: GraphView>(
    view: &V,
    source: VertexId,
    target: VertexId,
) -> Option<(f64, Vec<VertexId>)> {
    if !view.contains_vertex(source) || !view.contains_vertex(target) {
        return None;
    }
    let n = view.vertex_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        distance: 0.0,
        vertex: source,
    });
    while let Some(HeapEntry { distance, vertex }) = heap.pop() {
        if settled[vertex.index()] {
            continue;
        }
        settled[vertex.index()] = true;
        if vertex == target {
            break;
        }
        for (nbr, e) in view.neighbors(vertex) {
            let cand = distance + view.edge_weight(e);
            if cand < dist[nbr.index()] {
                dist[nbr.index()] = cand;
                parent[nbr.index()] = Some(vertex);
                heap.push(HeapEntry {
                    distance: cand,
                    vertex: nbr,
                });
            }
        }
    }
    if !dist[target.index()].is_finite() {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = parent[cur.index()].expect("path reconstruction must reach the source");
        path.push(cur);
    }
    path.reverse();
    Some((dist[target.index()], path))
}

/// A single-source shortest-path tree: distances and parent pointers from one
/// source over a (possibly faulted) view.
///
/// Trees are the unit of caching in query-serving layers: one Dijkstra run
/// from `source` answers every `(source, *)` distance or path query under the
/// same fault set, so the tree owns its data and can outlive both the scratch
/// space that computed it and the view it was computed on.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    source: VertexId,
    dist: Vec<f64>,
    /// Parent vertex index, [`NO_PARENT`] for the source and unreached
    /// vertices: 4 bytes per vertex where `Option<VertexId>` takes 8.
    parent: Vec<u32>,
}

impl ShortestPathTree {
    /// The source vertex the tree is rooted at.
    #[inline]
    #[must_use]
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Number of vertices covered by the tree (the view's vertex count).
    #[inline]
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.dist.len()
    }

    /// Heap bytes held by the tree's distance and parent arrays — the unit
    /// the tree-cache memory accounting sums over.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<f64>()
            + self.parent.capacity() * std::mem::size_of::<u32>()
    }

    /// Weighted distance from the source to `v`, or `None` when `v` is
    /// unreachable (or was faulted).
    #[must_use]
    pub fn distance_to(&self, v: VertexId) -> Option<f64> {
        let d = *self.dist.get(v.index())?;
        d.is_finite().then_some(d)
    }

    /// The shortest path from the source to `v` (inclusive on both ends), or
    /// `None` when `v` is unreachable.
    #[must_use]
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.dist.get(v.index())?.is_finite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            let parent = self.parent[cur.index()];
            assert_ne!(parent, NO_PARENT, "finite distance implies a parent chain");
            cur = VertexId::from(parent);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Raw distance slice indexed by vertex id (`f64::INFINITY` marks
    /// unreachable vertices), for bulk consumers like verifiers.
    #[inline]
    #[must_use]
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }
}

/// Reusable buffers for repeated Dijkstra runs.
///
/// Serving layers run Dijkstra once per (fault set, source) pair, thousands
/// of times per second; reallocating the distance, parent, settled, and heap
/// storage on every run is measurable. A scratch instance keeps those
/// allocations alive across runs and across views (it resizes itself to each
/// view's vertex count).
///
/// On unit-weighted views ([`GraphView::unit_weighted`]) the tree is built
/// with a bucket queue (Dial's algorithm with bucket width 1, which
/// degenerates to plain BFS): no heap, no `f64` comparisons in the queue
/// discipline. The distances are bit-identical to the Dijkstra lane — both
/// compute exact small-integer sums of `1.0` — only the choice of parent
/// among equal-distance predecessors (and therefore which of several equally
/// short paths a tree reports) can differ.
///
/// Both lanes walk the view's raw adjacency ([`GraphView::raw_neighbors`])
/// and test their own state before the faults: the Dial lane admits a
/// neighbour when `dist` is still infinite **and** [`GraphView::admits`]
/// holds, the heap lane when the candidate distance improves **and** the
/// step is admitted. Both tests are side-effect free, so the admitted
/// neighbours, their order and hence every distance, parent and path are
/// exactly those of a loop over [`GraphView::neighbors`]; a neighbour that
/// is already reached just skips the fault-mask loads. The Dial FIFO is a
/// flat vector with a head index, and parents are `u32` indices.
///
/// # Examples
///
/// ```
/// use ftspan_graph::dijkstra::DijkstraScratch;
/// use ftspan_graph::{vid, Graph};
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 2.0);
/// g.add_edge(1, 2, 3.0);
/// let mut scratch = DijkstraScratch::new();
/// let tree = scratch.shortest_path_tree(&g, vid(0));
/// assert_eq!(tree.distance_to(vid(2)), Some(5.0));
/// assert_eq!(tree.path_to(vid(2)).unwrap(), vec![vid(0), vid(1), vid(2)]);
/// ```
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    /// Parent vertex index per vertex, [`NO_PARENT`] when there is none.
    parent: Vec<u32>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    /// FIFO bucket of the Dial lane (unit weights ⇒ one active bucket): a
    /// flat vector read from a head index, since every vertex enters once.
    bucket: Vec<VertexId>,
}

impl DijkstraScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for views with `n` vertices.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            dist: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            settled: Vec::with_capacity(n),
            heap: BinaryHeap::with_capacity(n),
            bucket: Vec::with_capacity(n),
        }
    }

    /// Runs a single-source shortest-path computation from `source` over
    /// `view`, returning an owned tree. The scratch buffers are reset and
    /// reused; the returned tree copies only the distance and parent arrays
    /// it needs. Unit-weighted views take the bucket-queue (Dial) lane, all
    /// others run binary-heap Dijkstra; the distances agree bit-for-bit.
    #[must_use]
    pub fn shortest_path_tree<V: GraphView>(
        &mut self,
        view: &V,
        source: VertexId,
    ) -> ShortestPathTree {
        let _ = self.distances(view, source);
        ShortestPathTree {
            source,
            dist: self.dist.clone(),
            parent: self.parent.clone(),
        }
    }

    /// Like [`DijkstraScratch::shortest_path_tree`] but returning a borrow
    /// of the scratch's distance array instead of cloning it into an owned
    /// tree — the form bulk consumers (the spanner verifier, broken-pair
    /// detection) use when they only need distances. The slice is valid
    /// until the next run; distances are identical to
    /// [`dijkstra_distances`] (the Dial lane's are bit-identical by the
    /// argument in the type docs).
    pub fn distances<V: GraphView>(&mut self, view: &V, source: VertexId) -> &[f64] {
        let n = view.vertex_count();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(n, NO_PARENT);
        if view.contains_vertex(source) {
            if view.unit_weighted() {
                self.run_dial(view, source);
            } else {
                self.run_dijkstra(view, source);
            }
        }
        &self.dist
    }

    /// The Dial lane: with every weight exactly 1 the bucket queue has one
    /// live bucket per frontier level, i.e. a FIFO — every vertex settles on
    /// first discovery at distance `parent + 1.0` (an exact small-integer
    /// `f64`, so the sums match the heap lane's).
    fn run_dial<V: GraphView>(&mut self, view: &V, source: VertexId) {
        self.bucket.clear();
        self.bucket.reserve(self.dist.len());
        self.dist[source.index()] = 0.0;
        self.bucket.push(source);
        let mut head = 0;
        while let Some(&u) = self.bucket.get(head) {
            head += 1;
            let du = self.dist[u.index()];
            for (y, e) in view.raw_neighbors(u) {
                if self.dist[y.index()].is_infinite() && view.admits(y, e) {
                    self.dist[y.index()] = du + 1.0;
                    self.parent[y.index()] = u.as_u32();
                    self.bucket.push(y);
                }
            }
        }
    }

    /// The general lane: binary-heap Dijkstra with a settled bitmap.
    fn run_dijkstra<V: GraphView>(&mut self, view: &V, source: VertexId) {
        let n = view.vertex_count();
        self.settled.clear();
        self.settled.resize(n, false);
        self.heap.clear();
        self.dist[source.index()] = 0.0;
        self.heap.push(HeapEntry {
            distance: 0.0,
            vertex: source,
        });
        while let Some(HeapEntry { distance, vertex }) = self.heap.pop() {
            if self.settled[vertex.index()] {
                continue;
            }
            self.settled[vertex.index()] = true;
            for (y, e) in view.raw_neighbors(vertex) {
                let cand = distance + view.edge_weight(e);
                if cand < self.dist[y.index()] && view.admits(y, e) {
                    self.dist[y.index()] = cand;
                    self.parent[y.index()] = vertex.as_u32();
                    self.heap.push(HeapEntry {
                        distance: cand,
                        vertex: y,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vid, FaultView, Graph};

    fn weighted_square() -> Graph {
        // 0 --1.0-- 1
        // |         |
        // 4.0      1.0
        // |         |
        // 3 --1.0-- 2
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 0, 4.0);
        g
    }

    #[test]
    fn distances_prefer_lower_weight_route() {
        let g = weighted_square();
        let dist = dijkstra_distances(&g, vid(0));
        assert_eq!(dist[0], 0.0);
        assert_eq!(dist[1], 1.0);
        assert_eq!(dist[2], 2.0);
        assert_eq!(dist[3], 3.0); // via 1-2-3, not the weight-4 edge
    }

    #[test]
    fn unreachable_is_infinite_and_none() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        let dist = dijkstra_distances(&g, vid(0));
        assert!(dist[2].is_infinite());
        assert_eq!(weighted_distance(&g, vid(0), vid(2)), None);
    }

    #[test]
    fn faulted_endpoint_yields_none() {
        let g = weighted_square();
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(1));
        assert_eq!(weighted_distance(&view, vid(0), vid(1)), None);
        // Distance 0 -> 2 must now go around through 3.
        assert_eq!(weighted_distance(&view, vid(0), vid(2)), Some(5.0));
    }

    #[test]
    fn path_reconstruction_matches_distance() {
        let g = weighted_square();
        let (w, path) = shortest_weighted_path(&g, vid(0), vid(3)).unwrap();
        assert_eq!(w, 3.0);
        assert_eq!(path, vec![vid(0), vid(1), vid(2), vid(3)]);
    }

    #[test]
    fn path_to_self_is_trivial() {
        let g = weighted_square();
        let (w, path) = shortest_weighted_path(&g, vid(2), vid(2)).unwrap();
        assert_eq!(w, 0.0);
        assert_eq!(path, vec![vid(2)]);
    }

    #[test]
    fn dijkstra_agrees_with_bfs_on_unit_weights() {
        let mut g = Graph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)] {
            g.add_unit_edge(u, v);
        }
        let bfs = crate::bfs::bfs_hop_distances(&g, vid(0));
        let dij = dijkstra_distances(&g, vid(0));
        for v in 0..6 {
            assert_eq!(bfs[v].map(f64::from), Some(dij[v]));
        }
    }

    #[test]
    fn zero_weight_edges_are_allowed() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 0.0);
        let dist = dijkstra_distances(&g, vid(0));
        assert_eq!(dist[2], 0.0);
    }

    #[test]
    fn scratch_tree_matches_one_shot_functions() {
        let g = weighted_square();
        let mut scratch = DijkstraScratch::with_capacity(4);
        let tree = scratch.shortest_path_tree(&g, vid(0));
        let dist = dijkstra_distances(&g, vid(0));
        for (v, &expected) in dist.iter().enumerate() {
            assert_eq!(tree.distances()[v], expected);
            assert_eq!(tree.distance_to(vid(v)), Some(expected));
        }
        let (w, path) = shortest_weighted_path(&g, vid(0), vid(3)).unwrap();
        assert_eq!(tree.distance_to(vid(3)), Some(w));
        assert_eq!(tree.path_to(vid(3)).unwrap(), path);
        assert_eq!(tree.source(), vid(0));
        assert_eq!(tree.vertex_count(), 4);
    }

    #[test]
    fn scratch_is_reusable_across_views_and_sizes() {
        let g = weighted_square();
        let mut scratch = DijkstraScratch::new();
        let full = scratch.shortest_path_tree(&g, vid(0));
        assert_eq!(full.distance_to(vid(2)), Some(2.0));

        let mut view = FaultView::new(&g);
        view.block_vertex(vid(1));
        let faulted = scratch.shortest_path_tree(&view, vid(0));
        assert_eq!(faulted.distance_to(vid(2)), Some(5.0));
        assert_eq!(faulted.distance_to(vid(1)), None);
        assert!(faulted.path_to(vid(1)).is_none());

        // A bigger graph afterwards: buffers must regrow correctly.
        let mut big = Graph::new(10);
        for i in 0..9 {
            big.add_edge(i, i + 1, 1.0);
        }
        let chain = scratch.shortest_path_tree(&big, vid(0));
        assert_eq!(chain.distance_to(vid(9)), Some(9.0));
        assert_eq!(chain.path_to(vid(9)).unwrap().len(), 10);
    }

    #[test]
    fn scratch_tree_from_faulted_source_is_empty() {
        let g = weighted_square();
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(0));
        let tree = DijkstraScratch::new().shortest_path_tree(&view, vid(0));
        for v in 0..4 {
            assert_eq!(tree.distance_to(vid(v)), None);
        }
    }

    #[test]
    fn dial_lane_matches_heap_distances_on_unit_graphs() {
        // A unit-weight graph takes the bucket-queue lane; distances must be
        // bit-identical to the heap lane (forced here by a FaultView over a
        // graph whose flag we break with a weight-1.0-but-general instance:
        // compare against the one-shot heap implementation instead).
        let mut g = Graph::new(8);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (1, 6),
            (6, 7),
            (2, 7),
        ] {
            g.add_unit_edge(u, v);
        }
        assert!(g.is_unit_weighted());
        let mut scratch = DijkstraScratch::new();
        let tree = scratch.shortest_path_tree(&g, vid(0));
        let heap_dist = dijkstra_distances(&g, vid(0));
        assert_eq!(tree.distances(), &heap_dist[..]);

        // Same under faults: the view inherits the unit-weight flag.
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(1));
        let tree = scratch.shortest_path_tree(&view, vid(0));
        let heap_dist = dijkstra_distances(&view, vid(0));
        assert_eq!(tree.distances(), &heap_dist[..]);
        // Paths from the Dial lane are valid shortest walks.
        let p = tree.path_to(vid(3)).expect("reachable around the fault");
        assert_eq!(p.first(), Some(&vid(0)));
        assert_eq!(p.last(), Some(&vid(3)));
        assert_eq!((p.len() - 1) as f64, tree.distance_to(vid(3)).unwrap());
    }

    #[test]
    fn heap_entry_ordering_is_a_min_heap() {
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            distance: 3.0,
            vertex: vid(0),
        });
        heap.push(HeapEntry {
            distance: 1.0,
            vertex: vid(1),
        });
        heap.push(HeapEntry {
            distance: 2.0,
            vertex: vid(2),
        });
        assert_eq!(heap.pop().unwrap().distance, 1.0);
        assert_eq!(heap.pop().unwrap().distance, 2.0);
        assert_eq!(heap.pop().unwrap().distance, 3.0);
    }
}
