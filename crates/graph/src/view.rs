//! Zero-copy views of a graph with a set of vertices and/or edges removed.
//!
//! Fault-tolerant spanner algorithms constantly ask questions about `G \ F`
//! for many different fault sets `F`. Copying the graph for each query would
//! dominate the running time, so instead the traversal algorithms in this
//! crate are generic over [`GraphView`], and [`FaultView`] implements that
//! trait by filtering a borrowed [`Graph`] through cheap membership bitmaps.

use crate::bfs::BfsScratch;
use crate::{EdgeId, Graph, IdRemap, VertexId};

/// Read-only access to an undirected graph, possibly with faults applied.
///
/// All traversal algorithms ([`bfs`](crate::bfs), [`dijkstra`](crate::dijkstra),
/// connectivity, girth) are generic over this trait so that they can run on a
/// full [`Graph`] or on a [`FaultView`] without copying.
///
/// # Raw adjacency and admission
///
/// A view exposes its live adjacency two ways. [`GraphView::neighbors`]
/// yields only the surviving `(neighbor, edge)` pairs. The pooled traversal
/// lanes instead walk [`GraphView::raw_neighbors`], the unfiltered adjacency
/// of the underlying graph, test their own visited/distance state first and
/// only then ask [`GraphView::admits`] whether the step survives the faults.
/// A neighbour that is already reached then costs one array read instead of
/// the fault-mask loads. The contract that keeps this exact:
///
/// * `raw_neighbors(v)` yields a superset of `neighbors(v)` in the same
///   relative order;
/// * for a live `v`, a pair of `raw_neighbors(v)` appears in `neighbors(v)`
///   exactly when `admits(nbr, e)` holds.
///
/// A lane that only expands live vertices and checks `visited && admits`
/// (two side-effect-free tests joined by `&&`) therefore sees the same
/// admitted neighbours in the same order as one iterating `neighbors`, so
/// every distance, parent and path it reports is bit-identical. The
/// defaults (`neighbors` and `true`) satisfy the contract for any view.
pub trait GraphView {
    /// Total size of the vertex identifier space (including faulted vertices).
    fn vertex_count(&self) -> usize;

    /// Returns `true` if vertex `v` is present (not faulted).
    fn contains_vertex(&self, v: VertexId) -> bool;

    /// Returns `true` if edge `e` is present: not faulted itself and neither
    /// endpoint faulted.
    fn contains_edge(&self, e: EdgeId) -> bool;

    /// Iterates over the live `(neighbor, edge)` pairs of `v`.
    ///
    /// If `v` itself is faulted the iterator is empty.
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_;

    /// Iterates over the `(neighbor, edge)` pairs of `v` in the underlying
    /// graph, faulted or not, in [`GraphView::neighbors`] order. Pair it with
    /// [`GraphView::admits`] (see the trait docs); `v` must be live.
    fn raw_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v)
    }

    /// Returns `true` if the step from a live vertex to `nbr` over `e` (a
    /// pair of its [`GraphView::raw_neighbors`]) survives the faults.
    #[inline]
    fn admits(&self, nbr: VertexId, e: EdgeId) -> bool {
        let _ = (nbr, e);
        true
    }

    /// Weight of edge `e` in the underlying graph.
    fn edge_weight(&self, e: EdgeId) -> f64;

    /// Endpoints of edge `e` in the underlying graph.
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId);

    /// Returns `true` when every edge of the underlying graph has weight
    /// exactly 1. Traversals use this to take the bucket-queue (Dial)
    /// shortest-path lane, which on unit weights degenerates to BFS and
    /// produces bit-identical distances to Dijkstra without a heap. The
    /// default is conservative: `false`.
    fn unit_weighted(&self) -> bool {
        false
    }

    /// Number of live vertices.
    fn live_vertex_count(&self) -> usize {
        (0..self.vertex_count())
            .filter(|&i| self.contains_vertex(VertexId::new(i)))
            .count()
    }
}

impl GraphView for Graph {
    #[inline]
    fn vertex_count(&self) -> usize {
        Graph::vertex_count(self)
    }

    #[inline]
    fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < Graph::vertex_count(self)
    }

    #[inline]
    fn contains_edge(&self, e: EdgeId) -> bool {
        e.index() < self.edge_count()
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        Graph::neighbors(self, v)
    }

    #[inline]
    fn edge_weight(&self, e: EdgeId) -> f64 {
        self.weight(e)
    }

    #[inline]
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edge(e).endpoints()
    }

    #[inline]
    fn unit_weighted(&self) -> bool {
        self.is_unit_weighted()
    }

    #[inline]
    fn live_vertex_count(&self) -> usize {
        Graph::vertex_count(self)
    }
}

impl<T: GraphView + ?Sized> GraphView for &T {
    #[inline]
    fn vertex_count(&self) -> usize {
        (**self).vertex_count()
    }

    #[inline]
    fn contains_vertex(&self, v: VertexId) -> bool {
        (**self).contains_vertex(v)
    }

    #[inline]
    fn contains_edge(&self, e: EdgeId) -> bool {
        (**self).contains_edge(e)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        (**self).neighbors(v)
    }

    #[inline]
    fn raw_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        (**self).raw_neighbors(v)
    }

    #[inline]
    fn admits(&self, nbr: VertexId, e: EdgeId) -> bool {
        (**self).admits(nbr, e)
    }

    #[inline]
    fn edge_weight(&self, e: EdgeId) -> f64 {
        (**self).edge_weight(e)
    }

    #[inline]
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        (**self).edge_endpoints(e)
    }

    #[inline]
    fn unit_weighted(&self) -> bool {
        (**self).unit_weighted()
    }

    #[inline]
    fn live_vertex_count(&self) -> usize {
        (**self).live_vertex_count()
    }
}

/// A view of `G \ F` for a mutable fault set `F` of vertices and/or edges.
///
/// The view borrows the underlying graph and maintains two bitmaps, so
/// blocking or unblocking an element is `O(1)` and the view itself costs
/// `O(n + m)` bits to create. The fault set can be grown incrementally, which
/// is exactly the access pattern of the Length-Bounded Cut approximation
/// (Algorithm 2 of the paper): repeatedly find a short path, block all its
/// interior vertices, repeat.
///
/// # Examples
///
/// ```
/// use ftspan_graph::{vid, FaultView, Graph, GraphView};
///
/// let mut g = Graph::new(4);
/// g.add_unit_edge(0, 1);
/// g.add_unit_edge(1, 2);
/// g.add_unit_edge(2, 3);
/// let mut view = FaultView::new(&g);
/// assert!(view.contains_vertex(vid(1)));
/// view.block_vertex(vid(1));
/// assert!(!view.contains_vertex(vid(1)));
/// // Edge {0,1} is gone because an endpoint is faulted.
/// assert_eq!(view.neighbors(vid(0)).count(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct FaultView<'g> {
    graph: &'g Graph,
    vertex_blocked: Vec<bool>,
    edge_blocked: Vec<bool>,
    blocked_vertex_count: usize,
    blocked_edge_count: usize,
    namespace: u64,
    fingerprint: u64,
}

/// Domain-separation tags mixed into the [`FaultView::fingerprint`] so a
/// blocked vertex and a blocked edge with the same index hash differently,
/// and so a namespace qualifier can never cancel against either.
const VERTEX_FINGERPRINT_TAG: u64 = 0x9E6C_63D0_76CC_4311;
const EDGE_FINGERPRINT_TAG: u64 = 0x5851_F42D_4C95_7F2D;
const NAMESPACE_FINGERPRINT_TAG: u64 = 0xA24B_AED4_963E_E407;

/// SplitMix64 finalizer, used to spread fault element ids over 64 bits.
#[inline]
fn mix64(tag: u64, value: u64) -> u64 {
    let mut z = tag ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn mix_fingerprint(tag: u64, index: usize) -> u64 {
    mix64(tag, index as u64)
}

/// The fingerprint contribution of a namespace qualifier: `0` for the default
/// namespace `0`, a SplitMix64 hash otherwise.
///
/// Fault fingerprints are computed over *local* element indices, so two
/// different regions (for example two shards of a sharded oracle) holding
/// identical local fault patterns would collide. Namespacing folds a
/// region-unique qualifier into the fingerprint so cached `G \ F` artifacts
/// can never be confused across regions. Namespace `0` is the global
/// namespace and leaves every existing fingerprint unchanged.
#[inline]
#[must_use]
pub fn namespace_fingerprint(namespace: u64) -> u64 {
    if namespace == 0 {
        0
    } else {
        mix64(NAMESPACE_FINGERPRINT_TAG, namespace)
    }
}

/// Like [`fault_fingerprint`] but qualified by a namespace (see
/// [`namespace_fingerprint`]). `fault_fingerprint_namespaced(0, ..)` equals
/// `fault_fingerprint(..)`.
#[must_use]
pub fn fault_fingerprint_namespaced<VI, EI>(namespace: u64, vertices: VI, edges: EI) -> u64
where
    VI: IntoIterator<Item = VertexId>,
    EI: IntoIterator<Item = EdgeId>,
{
    namespace_fingerprint(namespace) ^ fault_fingerprint(vertices, edges)
}

/// Computes the fingerprint a [`FaultView`] would report after blocking
/// exactly the given vertices and edges, without building the view.
///
/// Caching layers key "`G \ F` artifacts" by fault set; this lets them derive
/// the key in `O(|F|)` straight from the fault lists while staying consistent
/// with [`FaultView::fingerprint`]. Duplicate elements must not be passed
/// (XOR would cancel them out).
#[must_use]
pub fn fault_fingerprint<VI, EI>(vertices: VI, edges: EI) -> u64
where
    VI: IntoIterator<Item = VertexId>,
    EI: IntoIterator<Item = EdgeId>,
{
    let mut fp = 0u64;
    for v in vertices {
        fp ^= mix_fingerprint(VERTEX_FINGERPRINT_TAG, v.index());
    }
    for e in edges {
        fp ^= mix_fingerprint(EDGE_FINGERPRINT_TAG, e.index());
    }
    fp
}

impl<'g> FaultView<'g> {
    /// Creates a view with an empty fault set in the global namespace `0`.
    #[must_use]
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_namespace(graph, 0)
    }

    /// Creates a view with an empty fault set whose fingerprints are
    /// qualified by `namespace` (see [`namespace_fingerprint`]).
    ///
    /// Views over remapped regions (shards) must use a region-unique
    /// namespace: their local element indices overlap, so unqualified
    /// fingerprints of identical local fault patterns would collide across
    /// regions.
    #[must_use]
    pub fn with_namespace(graph: &'g Graph, namespace: u64) -> Self {
        Self {
            graph,
            vertex_blocked: vec![false; graph.vertex_count()],
            edge_blocked: vec![false; graph.edge_count()],
            blocked_vertex_count: 0,
            blocked_edge_count: 0,
            namespace,
            fingerprint: namespace_fingerprint(namespace),
        }
    }

    /// The namespace qualifier this view folds into its fingerprint.
    #[inline]
    #[must_use]
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// Creates a view with the given vertices already blocked.
    #[must_use]
    pub fn with_blocked_vertices<I>(graph: &'g Graph, vertices: I) -> Self
    where
        I: IntoIterator<Item = VertexId>,
    {
        let mut view = Self::new(graph);
        for v in vertices {
            view.block_vertex(v);
        }
        view
    }

    /// Creates a view with the given edges already blocked.
    #[must_use]
    pub fn with_blocked_edges<I>(graph: &'g Graph, edges: I) -> Self
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let mut view = Self::new(graph);
        for e in edges {
            view.block_edge(e);
        }
        view
    }

    /// The underlying graph.
    #[inline]
    #[must_use]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Blocks (removes) vertex `v`. Blocking an already-blocked vertex is a
    /// no-op. Returns `true` if the vertex was newly blocked.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the underlying graph.
    pub fn block_vertex(&mut self, v: VertexId) -> bool {
        let slot = &mut self.vertex_blocked[v.index()];
        if *slot {
            false
        } else {
            *slot = true;
            self.blocked_vertex_count += 1;
            self.fingerprint ^= mix_fingerprint(VERTEX_FINGERPRINT_TAG, v.index());
            true
        }
    }

    /// Unblocks vertex `v`. Returns `true` if the vertex had been blocked.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the underlying graph.
    pub fn unblock_vertex(&mut self, v: VertexId) -> bool {
        let slot = &mut self.vertex_blocked[v.index()];
        if *slot {
            *slot = false;
            self.blocked_vertex_count -= 1;
            self.fingerprint ^= mix_fingerprint(VERTEX_FINGERPRINT_TAG, v.index());
            true
        } else {
            false
        }
    }

    /// Blocks (removes) edge `e`. Returns `true` if the edge was newly blocked.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the underlying graph.
    pub fn block_edge(&mut self, e: EdgeId) -> bool {
        let slot = &mut self.edge_blocked[e.index()];
        if *slot {
            false
        } else {
            *slot = true;
            self.blocked_edge_count += 1;
            self.fingerprint ^= mix_fingerprint(EDGE_FINGERPRINT_TAG, e.index());
            true
        }
    }

    /// Unblocks edge `e`. Returns `true` if the edge had been blocked.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the underlying graph.
    pub fn unblock_edge(&mut self, e: EdgeId) -> bool {
        let slot = &mut self.edge_blocked[e.index()];
        if *slot {
            *slot = false;
            self.blocked_edge_count -= 1;
            self.fingerprint ^= mix_fingerprint(EDGE_FINGERPRINT_TAG, e.index());
            true
        } else {
            false
        }
    }

    /// Removes all faults, restoring the full graph (the namespace is kept).
    pub fn clear(&mut self) {
        self.vertex_blocked.fill(false);
        self.edge_blocked.fill(false);
        self.blocked_vertex_count = 0;
        self.blocked_edge_count = 0;
        self.fingerprint = namespace_fingerprint(self.namespace);
    }

    /// A 64-bit fingerprint of the current fault set, maintained in `O(1)`
    /// per block/unblock operation.
    ///
    /// The fingerprint is an XOR of per-element SplitMix64 hashes, so it is
    /// independent of the order in which faults were applied and returns to
    /// its previous value when a fault is lifted; two views over the same
    /// graph with equal fault sets always share a fingerprint. Caching layers
    /// use it as a cheap first-level key for "`G \ F` artifacts" (for
    /// example per-fault-set shortest-path trees) without materializing or
    /// sorting the fault set on every lookup. As with any 64-bit hash,
    /// distinct fault sets can collide with probability `~2⁻⁶⁴`; exact caches
    /// must confirm equality on the full fault set after a fingerprint hit.
    #[inline]
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of currently blocked vertices.
    #[inline]
    #[must_use]
    pub fn blocked_vertex_count(&self) -> usize {
        self.blocked_vertex_count
    }

    /// Number of currently blocked edges.
    #[inline]
    #[must_use]
    pub fn blocked_edge_count(&self) -> usize {
        self.blocked_edge_count
    }

    /// Returns `true` if vertex `v` is blocked.
    #[inline]
    #[must_use]
    pub fn is_vertex_blocked(&self, v: VertexId) -> bool {
        self.vertex_blocked[v.index()]
    }

    /// Returns `true` if edge `e` is blocked (directly, not via endpoints).
    #[inline]
    #[must_use]
    pub fn is_edge_blocked(&self, e: EdgeId) -> bool {
        self.edge_blocked[e.index()]
    }

    /// Iterates over the currently blocked vertices.
    pub fn blocked_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex_blocked
            .iter()
            .enumerate()
            .filter(|&(_i, &b)| b)
            .map(|(i, &_b)| VertexId::new(i))
    }

    /// Iterates over the currently blocked edges.
    pub fn blocked_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edge_blocked
            .iter()
            .enumerate()
            .filter(|&(_i, &b)| b)
            .map(|(i, &_b)| EdgeId::new(i))
    }
}

impl GraphView for FaultView<'_> {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    #[inline]
    fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.graph.vertex_count() && !self.vertex_blocked[v.index()]
    }

    #[inline]
    fn contains_edge(&self, e: EdgeId) -> bool {
        if e.index() >= self.graph.edge_count() || self.edge_blocked[e.index()] {
            return false;
        }
        let (u, v) = self.graph.edge(e).endpoints();
        !self.vertex_blocked[u.index()] && !self.vertex_blocked[v.index()]
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let blocked_self = self.vertex_blocked[v.index()];
        self.raw_neighbors(v)
            .filter(move |&(nbr, e)| !blocked_self && self.admits(nbr, e))
    }

    #[inline]
    fn raw_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.graph.neighbors(v)
    }

    /// Tests the vertex mask, and the edge mask only when some edge is
    /// blocked (vertex-fault views never load it).
    #[inline]
    fn admits(&self, nbr: VertexId, e: EdgeId) -> bool {
        !self.vertex_blocked[nbr.index()]
            && (self.blocked_edge_count == 0 || !self.edge_blocked[e.index()])
    }

    #[inline]
    fn edge_weight(&self, e: EdgeId) -> f64 {
        self.graph.weight(e)
    }

    #[inline]
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.graph.edge(e).endpoints()
    }

    #[inline]
    fn unit_weighted(&self) -> bool {
        self.graph.is_unit_weighted()
    }

    #[inline]
    fn live_vertex_count(&self) -> usize {
        self.graph.vertex_count() - self.blocked_vertex_count
    }
}

/// Pooled storage for short-lived fault views.
///
/// [`FaultView::new`] allocates two bitmaps sized by the graph — fine for a
/// long-lived view, but the Length-Bounded Cut decision builds a fresh view
/// *per candidate edge*, thousands of times per repair wave. A
/// `FaultScratch` keeps epoch-stamped marks ([`crate::EpochMarks`]) alive
/// across those views: starting a new view ([`FaultScratch::view`]) bumps
/// the epoch instead of clearing, so view setup is `O(1)` after the first
/// use on a graph size.
///
/// The produced [`ScratchFaultView`] filters traversal exactly like a
/// [`FaultView`] with the same blocked set, so algorithms generic over
/// [`GraphView`] behave identically on either.
///
/// # Examples
///
/// ```
/// use ftspan_graph::{vid, FaultScratch, Graph, GraphView};
///
/// let mut g = Graph::new(3);
/// g.add_unit_edge(0, 1);
/// g.add_unit_edge(1, 2);
/// let mut scratch = FaultScratch::new();
/// let mut view = scratch.view(&g);
/// view.block_vertex(vid(1));
/// assert_eq!(view.neighbors(vid(0)).count(), 0);
/// // The next view starts empty again, without touching the marks.
/// let view = scratch.view(&g);
/// assert_eq!(view.neighbors(vid(0)).count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultScratch {
    vertices: crate::EpochMarks,
    edges: crate::EpochMarks,
    blocked_vertices: usize,
}

impl FaultScratch {
    /// Creates an empty scratch; the marks grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh, empty fault view over `graph`, reusing the pooled
    /// marks (`O(1)` apart from growing them the first time a larger graph
    /// is seen).
    pub fn view<'s, 'g>(&'s mut self, graph: &'g Graph) -> ScratchFaultView<'s, 'g> {
        self.vertices.begin(graph.vertex_count());
        self.edges.begin(graph.edge_count());
        self.blocked_vertices = 0;
        ScratchFaultView { graph, marks: self }
    }
}

/// A borrowed fault view over pooled [`FaultScratch`] marks.
///
/// Supports the same grow-only blocking operations the Length-Bounded Cut
/// decision needs ([`ScratchFaultView::block_vertex`],
/// [`ScratchFaultView::block_edge`]) and implements [`GraphView`] with the
/// same filtering semantics as [`FaultView`]. Dropping the view leaves the
/// marks in the scratch for the next one.
#[derive(Debug)]
pub struct ScratchFaultView<'s, 'g> {
    graph: &'g Graph,
    marks: &'s mut FaultScratch,
}

impl ScratchFaultView<'_, '_> {
    /// The underlying graph.
    #[inline]
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Blocks (removes) vertex `v`. Returns `true` if newly blocked.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the underlying graph.
    pub fn block_vertex(&mut self, v: VertexId) -> bool {
        assert!(v.index() < self.graph.vertex_count(), "vertex out of range");
        let newly = self.marks.vertices.set(v.index());
        self.marks.blocked_vertices += usize::from(newly);
        newly
    }

    /// Blocks (removes) edge `e`. Returns `true` if newly blocked.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the underlying graph.
    pub fn block_edge(&mut self, e: EdgeId) -> bool {
        assert!(e.index() < self.graph.edge_count(), "edge out of range");
        self.marks.edges.set(e.index())
    }

    /// Returns `true` if vertex `v` is blocked.
    #[inline]
    #[must_use]
    pub fn is_vertex_blocked(&self, v: VertexId) -> bool {
        self.marks.vertices.is_set(v.index())
    }

    /// Returns `true` if edge `e` is blocked (directly, not via endpoints).
    #[inline]
    #[must_use]
    pub fn is_edge_blocked(&self, e: EdgeId) -> bool {
        self.marks.edges.is_set(e.index())
    }
}

impl GraphView for ScratchFaultView<'_, '_> {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    #[inline]
    fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.graph.vertex_count() && !self.is_vertex_blocked(v)
    }

    #[inline]
    fn contains_edge(&self, e: EdgeId) -> bool {
        if e.index() >= self.graph.edge_count() || self.is_edge_blocked(e) {
            return false;
        }
        let (u, v) = self.graph.edge(e).endpoints();
        !self.is_vertex_blocked(u) && !self.is_vertex_blocked(v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let blocked_self = self.is_vertex_blocked(v);
        self.raw_neighbors(v)
            .filter(move |&(nbr, e)| !blocked_self && self.admits(nbr, e))
    }

    #[inline]
    fn raw_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.graph.neighbors(v)
    }

    #[inline]
    fn admits(&self, nbr: VertexId, e: EdgeId) -> bool {
        !self.is_vertex_blocked(nbr) && !self.is_edge_blocked(e)
    }

    #[inline]
    fn edge_weight(&self, e: EdgeId) -> f64 {
        self.graph.weight(e)
    }

    #[inline]
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.graph.edge(e).endpoints()
    }

    #[inline]
    fn unit_weighted(&self) -> bool {
        self.graph.is_unit_weighted()
    }

    #[inline]
    fn live_vertex_count(&self) -> usize {
        self.graph.vertex_count() - self.marks.blocked_vertices
    }
}

/// Region extraction: induced subgraphs with a halo, the building block of
/// sharded serving. A *region* is a vertex subset (a shard's core) expanded
/// by every vertex within a hop radius (the halo), re-indexed densely via
/// [`IdRemap`] so per-region data structures stay compact.
impl Graph {
    /// All vertices within `radius` hops of any core vertex — the core plus
    /// its halo — in ascending global id order (so downstream local ids are
    /// deterministic). Out-of-range core vertices are ignored.
    #[must_use]
    pub fn halo_members(&self, core: &[VertexId], radius: u32) -> Vec<VertexId> {
        let mut scratch = BfsScratch::new();
        self.halo_members_with(&mut scratch, core, radius)
    }

    /// Like [`Graph::halo_members`] but reusing caller-owned BFS buffers —
    /// the form repair fan-outs use when they extract one region per shard
    /// in a loop.
    #[must_use]
    pub fn halo_members_with(
        &self,
        scratch: &mut BfsScratch,
        core: &[VertexId],
        radius: u32,
    ) -> Vec<VertexId> {
        let dist = scratch.multi_source_hop_distances(self, core.iter().copied(), radius);
        dist.iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(i, _)| VertexId::new(i))
            .collect()
    }

    /// Builds the induced subgraph on the given members together with the
    /// local↔global id mapping. Duplicate members keep their first position;
    /// local ids follow member order.
    ///
    /// # Panics
    ///
    /// Panics if any member is out of range.
    #[must_use]
    pub fn induced_subgraph_remap(&self, members: &[VertexId]) -> (Graph, IdRemap) {
        let (sub, original_of) = self.induced_subgraph(members);
        let remap = IdRemap::from_members(self.vertex_count(), &original_of);
        (sub, remap)
    }

    /// Builds the induced subgraph on `core` plus its hop-`radius` halo,
    /// together with the id mapping: the region a shard serves locally. A
    /// disconnected core vertex still belongs to its own region.
    #[must_use]
    pub fn induced_subgraph_with_halo(&self, core: &[VertexId], radius: u32) -> (Graph, IdRemap) {
        let members = self.halo_members(core, radius);
        self.induced_subgraph_remap(&members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vid;

    fn cycle(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_unit_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn graph_implements_view_faithfully() {
        let g = cycle(5);
        assert_eq!(GraphView::vertex_count(&g), 5);
        assert_eq!(g.live_vertex_count(), 5);
        assert!(g.contains_vertex(vid(4)));
        assert!(!g.contains_vertex(vid(5)));
        assert_eq!(GraphView::neighbors(&g, vid(0)).count(), 2);
    }

    #[test]
    fn blocking_vertex_hides_incident_edges() {
        let g = cycle(4);
        let mut view = FaultView::new(&g);
        assert_eq!(view.neighbors(vid(0)).count(), 2);
        view.block_vertex(vid(1));
        let nbrs: Vec<_> = view.neighbors(vid(0)).map(|(v, _)| v).collect();
        assert_eq!(nbrs, vec![vid(3)]);
        assert_eq!(view.live_vertex_count(), 3);
        assert!(!view.contains_vertex(vid(1)));
        // Neighbors of a blocked vertex are empty.
        assert_eq!(view.neighbors(vid(1)).count(), 0);
    }

    #[test]
    fn blocking_edge_hides_only_that_edge() {
        let g = cycle(4);
        let e01 = g.edge_between(vid(0), vid(1)).unwrap();
        let mut view = FaultView::new(&g);
        view.block_edge(e01);
        assert!(!view.contains_edge(e01));
        let nbrs: Vec<_> = view.neighbors(vid(0)).map(|(v, _)| v).collect();
        assert_eq!(nbrs, vec![vid(3)]);
        // Vertex 1 is still live and sees vertex 2.
        assert!(view.contains_vertex(vid(1)));
        let nbrs: Vec<_> = view.neighbors(vid(1)).map(|(v, _)| v).collect();
        assert_eq!(nbrs, vec![vid(2)]);
    }

    #[test]
    fn block_and_unblock_round_trip() {
        let g = cycle(4);
        let mut view = FaultView::new(&g);
        assert!(view.block_vertex(vid(2)));
        assert!(!view.block_vertex(vid(2)));
        assert_eq!(view.blocked_vertex_count(), 1);
        assert!(view.unblock_vertex(vid(2)));
        assert!(!view.unblock_vertex(vid(2)));
        assert_eq!(view.blocked_vertex_count(), 0);
        assert_eq!(view.neighbors(vid(1)).count(), 2);

        let e = g.edge_between(vid(0), vid(1)).unwrap();
        assert!(view.block_edge(e));
        assert!(!view.block_edge(e));
        assert_eq!(view.blocked_edge_count(), 1);
        assert!(view.unblock_edge(e));
        assert_eq!(view.blocked_edge_count(), 0);
    }

    #[test]
    fn clear_restores_full_graph() {
        let g = cycle(6);
        let mut view = FaultView::with_blocked_vertices(&g, [vid(0), vid(3)]);
        view.block_edge(g.edge_between(vid(1), vid(2)).unwrap());
        assert_eq!(view.live_vertex_count(), 4);
        view.clear();
        assert_eq!(view.live_vertex_count(), 6);
        assert_eq!(view.blocked_edge_count(), 0);
        assert_eq!(view.neighbors(vid(1)).count(), 2);
    }

    #[test]
    fn constructors_with_initial_faults() {
        let g = cycle(5);
        let view = FaultView::with_blocked_vertices(&g, [vid(1), vid(2)]);
        assert_eq!(view.blocked_vertex_count(), 2);
        let blocked: Vec<_> = view.blocked_vertices().collect();
        assert_eq!(blocked, vec![vid(1), vid(2)]);

        let e0 = g.edge_between(vid(0), vid(1)).unwrap();
        let view = FaultView::with_blocked_edges(&g, [e0]);
        assert_eq!(view.blocked_edge_count(), 1);
        let blocked: Vec<_> = view.blocked_edges().collect();
        assert_eq!(blocked, vec![e0]);
    }

    #[test]
    fn contains_edge_accounts_for_blocked_endpoints() {
        let g = cycle(4);
        let e01 = g.edge_between(vid(0), vid(1)).unwrap();
        let mut view = FaultView::new(&g);
        assert!(view.contains_edge(e01));
        view.block_vertex(vid(0));
        assert!(!view.contains_edge(e01));
    }

    #[test]
    fn fingerprint_is_order_independent_and_reversible() {
        let g = cycle(6);
        let mut a = FaultView::new(&g);
        let mut b = FaultView::new(&g);
        assert_eq!(a.fingerprint(), 0);
        a.block_vertex(vid(1));
        a.block_vertex(vid(4));
        b.block_vertex(vid(4));
        b.block_vertex(vid(1));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), 0);
        // Lifting one fault returns to the single-fault fingerprint.
        let mut single = FaultView::new(&g);
        single.block_vertex(vid(1));
        a.unblock_vertex(vid(4));
        assert_eq!(a.fingerprint(), single.fingerprint());
        // Re-blocking an already blocked element must not change anything.
        a.block_vertex(vid(1));
        assert_eq!(a.fingerprint(), single.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_vertex_and_edge_faults() {
        let g = cycle(5);
        let mut by_vertex = FaultView::new(&g);
        by_vertex.block_vertex(vid(2));
        let mut by_edge = FaultView::new(&g);
        by_edge.block_edge(crate::eid(2));
        assert_ne!(by_vertex.fingerprint(), by_edge.fingerprint());
    }

    #[test]
    fn standalone_fault_fingerprint_matches_view() {
        let g = cycle(6);
        let e = g.edge_between(vid(2), vid(3)).unwrap();
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(5));
        view.block_vertex(vid(1));
        view.block_edge(e);
        assert_eq!(view.fingerprint(), fault_fingerprint([vid(1), vid(5)], [e]));
        assert_eq!(fault_fingerprint([], []), 0);
    }

    #[test]
    fn fingerprint_resets_on_clear() {
        let g = cycle(5);
        let mut view = FaultView::with_blocked_vertices(&g, [vid(0), vid(2)]);
        view.block_edge(g.edge_between(vid(3), vid(4)).unwrap());
        assert_ne!(view.fingerprint(), 0);
        view.clear();
        assert_eq!(view.fingerprint(), 0);
    }

    #[test]
    fn namespaced_views_with_equal_faults_have_distinct_fingerprints() {
        let g = cycle(6);
        let mut a = FaultView::with_namespace(&g, 1);
        let mut b = FaultView::with_namespace(&g, 2);
        assert_eq!(a.namespace(), 1);
        assert_ne!(a.fingerprint(), b.fingerprint(), "empty sets must differ");
        a.block_vertex(vid(3));
        b.block_vertex(vid(3));
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "identical local fault patterns in different namespaces must not collide"
        );
        // Clearing returns to the namespace's base fingerprint, not to 0.
        let base = FaultView::with_namespace(&g, 1).fingerprint();
        a.clear();
        assert_eq!(a.fingerprint(), base);
        assert_ne!(base, 0);
    }

    #[test]
    fn namespace_zero_matches_unnamespaced_fingerprints() {
        let g = cycle(5);
        let mut plain = FaultView::new(&g);
        let mut zero = FaultView::with_namespace(&g, 0);
        plain.block_vertex(vid(2));
        zero.block_vertex(vid(2));
        assert_eq!(plain.fingerprint(), zero.fingerprint());
        assert_eq!(
            fault_fingerprint_namespaced(0, [vid(2)], []),
            fault_fingerprint([vid(2)], [])
        );
        assert_eq!(
            fault_fingerprint_namespaced(7, [vid(2)], []),
            namespace_fingerprint(7) ^ fault_fingerprint([vid(2)], [])
        );
    }

    #[test]
    fn halo_members_grow_with_radius_and_include_the_core() {
        let g = {
            let mut g = Graph::new(8);
            for i in 0..7 {
                g.add_unit_edge(i, i + 1);
            }
            g
        };
        assert_eq!(g.halo_members(&[vid(3)], 0), vec![vid(3)]);
        assert_eq!(
            g.halo_members(&[vid(3)], 2),
            vec![vid(1), vid(2), vid(3), vid(4), vid(5)]
        );
        // Out-of-range cores are tolerated.
        assert_eq!(g.halo_members(&[vid(99)], 3), Vec::<VertexId>::new());
    }

    #[test]
    fn induced_subgraph_with_halo_keeps_weights_and_mapping() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(4, 5, 1.0);
        let (sub, remap) = g.induced_subgraph_with_halo(&[vid(1)], 1);
        assert_eq!(remap.members(), &[vid(0), vid(1), vid(2)]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        let e = sub
            .edge_between(
                remap.to_local(vid(1)).unwrap(),
                remap.to_local(vid(2)).unwrap(),
            )
            .unwrap();
        assert_eq!(sub.weight(e), 3.0);
        // Plain remapped induction on an explicit member list agrees.
        let (sub2, remap2) = g.induced_subgraph_remap(&[vid(0), vid(1), vid(2)]);
        assert_eq!(sub2.edge_count(), sub.edge_count());
        assert_eq!(remap2.members(), remap.members());
    }

    #[test]
    fn fault_scratch_views_filter_like_fault_views() {
        let g = cycle(6);
        let e12 = g.edge_between(vid(1), vid(2)).unwrap();
        let mut reference = FaultView::new(&g);
        reference.block_vertex(vid(0));
        reference.block_edge(e12);

        let mut scratch = FaultScratch::new();
        let mut view = scratch.view(&g);
        assert!(view.block_vertex(vid(0)));
        assert!(!view.block_vertex(vid(0)), "re-blocking reports false");
        assert!(view.block_edge(e12));
        for v in 0..6 {
            assert_eq!(
                view.contains_vertex(vid(v)),
                reference.contains_vertex(vid(v))
            );
            let a: Vec<_> = view.neighbors(vid(v)).collect();
            let b: Vec<_> = reference.neighbors(vid(v)).collect();
            assert_eq!(a, b, "neighbors of {v}");
        }
        for e in 0..g.edge_count() {
            assert_eq!(
                view.contains_edge(crate::eid(e)),
                reference.contains_edge(crate::eid(e))
            );
        }
        assert!(view.is_vertex_blocked(vid(0)));
        assert!(view.is_edge_blocked(e12));
        assert_eq!(view.live_vertex_count(), reference.live_vertex_count());
    }

    #[test]
    fn fault_scratch_epoch_clears_between_views() {
        let g = cycle(4);
        let mut scratch = FaultScratch::new();
        let mut view = scratch.view(&g);
        view.block_vertex(vid(1));
        assert!(!view.contains_vertex(vid(1)));
        // The next view starts with no faults, in O(1).
        let view = scratch.view(&g);
        assert!(view.contains_vertex(vid(1)));
        assert_eq!(view.neighbors(vid(0)).count(), 2);
        // And works on a larger graph afterwards (marks regrow).
        let big = cycle(9);
        let mut view = scratch.view(&big);
        view.block_vertex(vid(8));
        assert!(!view.contains_vertex(vid(8)));
        assert!(view.contains_vertex(vid(1)));
        assert_eq!(view.graph().vertex_count(), 9);
    }

    #[test]
    fn view_through_reference_also_works() {
        fn count_neighbors<V: GraphView>(view: V, v: VertexId) -> usize {
            view.neighbors(v).count()
        }
        let g = cycle(4);
        let view = FaultView::new(&g);
        assert_eq!(count_neighbors(&view, vid(0)), 2);
        assert_eq!(count_neighbors(&g, vid(0)), 2);
    }
}
