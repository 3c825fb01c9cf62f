//! The core undirected graph data structure, stored in compressed sparse row
//! (CSR) form.

use crate::error::{GraphError, Result};
use crate::{Edge, EdgeId, VertexId};

/// An undirected simple graph with optional edge weights, stored as a
/// compressed-sparse-row adjacency plus a dense edge table.
///
/// Vertices are the dense range `0..n`; edges are identified by [`EdgeId`] in
/// insertion order. The adjacency lives in two layers:
///
/// * a **CSR core** — `offsets: Vec<u32>` into one flat `(neighbor, edge id)`
///   array, with each vertex's slice sorted by neighbor id so
///   [`Graph::edge_between`] is a binary search and traversals walk
///   cache-contiguous memory;
/// * a small **append buffer** of edges added since the last compaction, so
///   incremental construction (the greedy spanner algorithms interleave
///   `add_edge` with reads) stays cheap.
///
/// [`Graph::compact`] merges the buffer into the CSR core; `add_edge` also
/// compacts automatically once the buffer grows past a fraction of the core,
/// so total maintenance cost is `O((n + m) log m)` over any insertion
/// sequence. Serving layers compact once after construction and then read a
/// pure CSR layout. All operations are correct regardless of compaction
/// state; compaction only changes layout (and therefore neighbor iteration
/// order, which is sorted within the core and insertion-ordered in the
/// buffer), never the answer of any query.
///
/// # Examples
///
/// ```
/// use ftspan_graph::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 1.0);
/// g.add_edge(2, 3, 2.0);
/// assert_eq!(g.vertex_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert!(g.has_edge_between(1, 2));
/// assert!(!g.has_edge_between(0, 3));
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    /// CSR offsets: the compacted neighbors of vertex `v` live in
    /// `csr_adj[csr_offsets[v] as usize..csr_offsets[v + 1] as usize]`.
    /// Always `n + 1` entries.
    csr_offsets: Vec<u32>,
    /// Flat `(neighbor, edge id)` pairs; each vertex's slice is sorted by
    /// neighbor id (neighbors are unique because the graph is simple).
    csr_adj: Vec<(VertexId, EdgeId)>,
    /// Per-vertex append buffers for edges added since the last compaction,
    /// in insertion order.
    pending: Vec<Vec<(VertexId, EdgeId)>>,
    /// Number of edges currently represented only in `pending`.
    pending_edges: usize,
    /// Dense edge table indexed by [`EdgeId`].
    edges: Vec<Edge>,
    /// True while every inserted edge has weight exactly 1.0.
    unit_weighted: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Graph {
    /// Creates a graph with `n` isolated vertices and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            csr_offsets: vec![0; n + 1],
            csr_adj: Vec::new(),
            pending: vec![Vec::new(); n],
            pending_edges: 0,
            edges: Vec::new(),
            unit_weighted: true,
        }
    }

    /// Creates a graph with `n` vertices and space reserved for `m` edges.
    #[must_use]
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut g = Self::new(n);
        g.edges.reserve(m);
        g
    }

    /// Creates an empty subgraph skeleton on the same vertex set as `other`:
    /// same number of vertices, no edges. This is the starting point `H = (V, ∅)`
    /// of every greedy spanner construction.
    #[must_use]
    pub fn empty_like(other: &Graph) -> Self {
        Self::with_capacity(other.vertex_count(), other.vertex_count())
    }

    /// Number of vertices `n`.
    #[inline]
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of edges `m`.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no edges.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Returns `true` while every edge inserted so far has weight exactly 1.
    ///
    /// Unweighted inputs are represented as unit-weighted graphs; algorithms
    /// use this flag to pick the unweighted code path (for example the
    /// bucket-queue shortest-path-tree builder in
    /// [`crate::dijkstra::DijkstraScratch`]).
    #[inline]
    #[must_use]
    pub fn is_unit_weighted(&self) -> bool {
        self.unit_weighted
    }

    /// Returns `true` when every edge lives in the CSR core (no pending
    /// append buffer). Serving layers compact once after construction so the
    /// query hot path reads a pure flat layout.
    #[inline]
    #[must_use]
    pub fn is_compacted(&self) -> bool {
        self.pending_edges == 0
    }

    /// The compacted CSR slice of vertex `v` (sorted by neighbor id).
    #[inline]
    fn csr_slice(&self, v: usize) -> &[(VertexId, EdgeId)] {
        let start = self.csr_offsets[v] as usize;
        let end = self.csr_offsets[v + 1] as usize;
        &self.csr_adj[start..end]
    }

    /// Merges the pending append buffers into the CSR core and drops the
    /// edge table's growth slack.
    ///
    /// After compaction every vertex's neighbors form one contiguous slice
    /// sorted by neighbor id, [`Graph::edge_between`] is a pure binary
    /// search, traversals touch no per-vertex heap allocations, and the
    /// graph holds no spare capacity, so [`Graph::memory_bytes`] depends only
    /// on `n` and `m`, not on how the graph was grown. Calling this on an
    /// already-compacted graph is a no-op. Compaction never changes vertex
    /// or edge identifiers, weights, or any query answer — only the memory
    /// layout and neighbor iteration order.
    pub fn compact(&mut self) {
        self.merge_pending();
        self.edges.shrink_to_fit();
    }

    /// The CSR merge of [`Graph::compact`], without the trim: incremental
    /// construction keeps the edge table's reservation between merges.
    fn merge_pending(&mut self) {
        if self.pending_edges == 0 {
            return;
        }
        let n = self.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * self.edges.len());
        offsets.push(0u32);
        for v in 0..n {
            let start = adj.len();
            let old_start = self.csr_offsets[v] as usize;
            let old_end = self.csr_offsets[v + 1] as usize;
            adj.extend_from_slice(&self.csr_adj[old_start..old_end]);
            adj.extend_from_slice(&self.pending[v]);
            adj[start..].sort_unstable_by_key(|&(nbr, _)| nbr);
            offsets.push(u32::try_from(adj.len()).expect("adjacency size exceeds u32::MAX"));
            // Free the buffer outright: a compacted graph carries no slack.
            self.pending[v] = Vec::new();
        }
        self.csr_offsets = offsets;
        self.csr_adj = adj;
        self.pending_edges = 0;
    }

    /// Iterates over all vertex identifiers `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count()).map(VertexId::new)
    }

    /// Iterates over all edges as `(EdgeId, &Edge)` in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// Iterates over all edge identifiers in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::new)
    }

    /// Returns the edge record for `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Returns the edge record for `e`, or `None` if out of range.
    #[inline]
    #[must_use]
    pub fn get_edge(&self, e: EdgeId) -> Option<&Edge> {
        self.edges.get(e.index())
    }

    /// Returns the weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    #[must_use]
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].weight()
    }

    /// Returns the degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: VertexId) -> usize {
        self.csr_slice(v.index()).len() + self.pending[v.index()].len()
    }

    /// Iterates over `(neighbor, edge id)` pairs of vertex `v`: first the
    /// CSR core (ascending neighbor id), then any pending appends.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.csr_slice(v.index())
            .iter()
            .copied()
            .chain(self.pending[v.index()].iter().copied())
    }

    /// Returns the identifier of the edge between `u` and `v`, if present:
    /// a binary search over the CSR slice plus a scan of the (small) pending
    /// buffer of the lower-degree endpoint. Out-of-range endpoints yield
    /// `None`.
    #[must_use]
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let n = self.vertex_count();
        if u.index() >= n || v.index() >= n || u == v {
            return None;
        }
        // Probe from the endpoint with the smaller degree.
        let (probe, target) = if self.degree(u) <= self.degree(v) {
            (u.index(), v)
        } else {
            (v.index(), u)
        };
        let slice = self.csr_slice(probe);
        if let Ok(pos) = slice.binary_search_by_key(&target, |&(nbr, _)| nbr) {
            return Some(slice[pos].1);
        }
        self.pending[probe]
            .iter()
            .find(|&&(nbr, _)| nbr == target)
            .map(|&(_, e)| e)
    }

    /// Returns `true` if an edge `{u, v}` exists. Accepts raw indices for
    /// convenience in tests and examples.
    #[must_use]
    pub fn has_edge_between(&self, u: usize, v: usize) -> bool {
        if u >= self.vertex_count() || v >= self.vertex_count() {
            return false;
        }
        self.edge_between(VertexId::new(u), VertexId::new(v))
            .is_some()
    }

    /// Adds an undirected edge `{u, v}` with the given weight, returning its id.
    ///
    /// This is the panicking convenience wrapper over [`Graph::try_add_edge`]
    /// intended for construction code where indices are known to be valid.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, parallel edges, or
    /// invalid (negative / non-finite) weights.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> EdgeId {
        self.try_add_edge(u, v, weight)
            .expect("invalid edge insertion")
    }

    /// Adds a unit-weight edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Graph::add_edge`].
    pub fn add_unit_edge(&mut self, u: usize, v: usize) -> EdgeId {
        self.add_edge(u, v, 1.0)
    }

    /// Adds an undirected edge `{u, v}` with the given weight.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, the edge is a
    /// self-loop, the edge already exists, or the weight is negative or not
    /// finite.
    pub fn try_add_edge(&mut self, u: usize, v: usize, weight: f64) -> Result<EdgeId> {
        let n = self.vertex_count();
        if u >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                vertex_count: n,
            });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                vertex_count: n,
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight { weight });
        }
        let (u, v) = (VertexId::new(u), VertexId::new(v));
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if self.edge_between(u, v).is_some() {
            return Err(GraphError::ParallelEdge { u, v });
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge::new(u, v, weight));
        self.pending[u.index()].push((v, id));
        self.pending[v.index()].push((u, id));
        self.pending_edges += 1;
        if weight != 1.0 {
            self.unit_weighted = false;
        }
        // Amortized self-compaction: once the append buffers hold a constant
        // fraction of the edges, fold them into the CSR core so long
        // incremental constructions keep binary-search lookups and contiguous
        // traversal. Geometric growth bounds total compaction work by
        // O((n + m) log m).
        let compacted = self.edges.len() - self.pending_edges;
        if self.pending_edges >= 64 && self.pending_edges >= compacted {
            self.merge_pending();
        }
        Ok(id)
    }

    /// Returns the sum of all edge weights.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(Edge::weight).sum()
    }

    /// Returns all edge identifiers sorted by nondecreasing weight, breaking
    /// ties by insertion order. This is the edge ordering used by the greedy
    /// spanner algorithms on weighted graphs.
    #[must_use]
    pub fn edge_ids_by_weight(&self) -> Vec<EdgeId> {
        let mut ids: Vec<EdgeId> = self.edge_ids().collect();
        ids.sort_by(|a, b| {
            self.weight(*a)
                .total_cmp(&self.weight(*b))
                .then_with(|| a.cmp(b))
        });
        ids
    }

    /// Returns the maximum degree over all vertices (0 for an empty graph).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.vertex_count())
            .map(|v| self.csr_slice(v).len() + self.pending[v].len())
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m / n`, or 0 for a graph without vertices.
    #[must_use]
    pub fn average_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.vertex_count() as f64
        }
    }

    /// Builds the subgraph of this graph containing exactly the given edges,
    /// on the same vertex set. Duplicate edge ids are ignored. The result is
    /// compacted.
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    #[must_use]
    pub fn edge_subgraph<I>(&self, edges: I) -> Graph
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let mut sub = Graph::with_capacity(self.vertex_count(), 0);
        for e in edges {
            let edge = self.edge(e);
            let (u, v) = edge.endpoints();
            if sub.edge_between(u, v).is_none() {
                sub.add_edge(u.index(), v.index(), edge.weight());
            }
        }
        sub.compact();
        sub
    }

    /// Builds the induced subgraph `G[C]` on the vertex subset `C`.
    ///
    /// Returns the induced graph (compacted) together with the mapping from
    /// new (dense) vertex indices back to the original vertex identifiers:
    /// entry `i` of the mapping is the original id of new vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if any vertex in `community` is out of range.
    #[must_use]
    pub fn induced_subgraph(&self, community: &[VertexId]) -> (Graph, Vec<VertexId>) {
        // Local-id lookup: a dense array is fastest but costs O(n) to zero,
        // which would make per-cluster loops (decomposition diagnostics,
        // LOCAL simulation) quadratic when called once per small cluster.
        // Switch representation on the community's share of the graph.
        enum LocalIds {
            Dense(Vec<Option<u32>>),
            Sparse(std::collections::HashMap<VertexId, u32>),
        }
        impl LocalIds {
            fn get(&self, v: VertexId) -> Option<u32> {
                match self {
                    LocalIds::Dense(ids) => ids[v.index()],
                    LocalIds::Sparse(ids) => ids.get(&v).copied(),
                }
            }
        }

        let dense = community.len() * 4 >= self.vertex_count();
        let mut new_of = if dense {
            LocalIds::Dense(vec![None; self.vertex_count()])
        } else {
            LocalIds::Sparse(std::collections::HashMap::with_capacity(community.len()))
        };
        let mut original_of = Vec::with_capacity(community.len());
        for &v in community {
            assert!(
                v.index() < self.vertex_count(),
                "vertex {v} out of range for induced subgraph"
            );
            let next = original_of.len() as u32;
            let inserted = match &mut new_of {
                LocalIds::Dense(ids) => {
                    let slot = &mut ids[v.index()];
                    slot.is_none() && {
                        *slot = Some(next);
                        true
                    }
                }
                LocalIds::Sparse(ids) => match ids.entry(v) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(next);
                        true
                    }
                    std::collections::hash_map::Entry::Occupied(_) => false,
                },
            };
            if inserted {
                original_of.push(v);
            }
        }
        let mut sub = Graph::new(original_of.len());
        for (i, &orig) in original_of.iter().enumerate() {
            for (nbr, e) in self.neighbors(orig) {
                if let Some(j) = new_of.get(nbr) {
                    if i < j as usize {
                        sub.add_edge(i, j as usize, self.weight(e));
                    }
                }
            }
        }
        sub.compact();
        (sub, original_of)
    }

    /// Merges all edges of `other` (over the same vertex set) into this graph,
    /// skipping edges already present. Returns the number of edges added.
    ///
    /// # Panics
    ///
    /// Panics if the vertex counts differ.
    pub fn union_edges_from(&mut self, other: &Graph) -> usize {
        assert_eq!(
            self.vertex_count(),
            other.vertex_count(),
            "union requires graphs over the same vertex set"
        );
        let mut added = 0;
        for (_, edge) in other.edges() {
            let (u, v) = edge.endpoints();
            if self.edge_between(u, v).is_none() {
                self.add_edge(u.index(), v.index(), edge.weight());
                added += 1;
            }
        }
        added
    }

    /// Heap bytes held by the graph's storage (capacities, not just lengths):
    /// CSR offsets and adjacency, pending append buffers, and the dense edge
    /// table. This is the accounting number the scale tier's memory audit
    /// sums across spanners, regions, and caches.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use core::mem::size_of;
        self.csr_offsets.capacity() * size_of::<u32>()
            + self.csr_adj.capacity() * size_of::<(VertexId, EdgeId)>()
            + self.pending.capacity() * size_of::<Vec<(VertexId, EdgeId)>>()
            + self
                .pending
                .iter()
                .map(|p| p.capacity() * size_of::<(VertexId, EdgeId)>())
                .sum::<usize>()
            + self.edges.capacity() * size_of::<Edge>()
    }

    /// Returns `true` if every edge of `self` is also an edge of `other`
    /// (ignoring weights).
    #[must_use]
    pub fn is_edge_subgraph_of(&self, other: &Graph) -> bool {
        self.vertex_count() == other.vertex_count()
            && self
                .edges
                .iter()
                .all(|e| other.edge_between(e.source(), e.target()).is_some())
    }
}

/// Incremental builder for [`Graph`] that tolerates out-of-order vertex
/// discovery: the vertex count grows automatically to cover every endpoint.
/// The built graph is compacted.
///
/// # Examples
///
/// ```
/// use ftspan_graph::GraphBuilder;
///
/// let g = GraphBuilder::new()
///     .edge(0, 1, 1.0)
///     .edge(1, 7, 2.0)
///     .build();
/// assert_eq!(g.vertex_count(), 8);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    min_vertices: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the built graph has at least `n` vertices.
    #[must_use]
    pub fn vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Records an edge `{u, v}` with the given weight.
    #[must_use]
    pub fn edge(mut self, u: usize, v: usize, weight: f64) -> Self {
        self.edges.push((u, v, weight));
        self
    }

    /// Records a unit-weight edge `{u, v}`.
    #[must_use]
    pub fn unit_edge(self, u: usize, v: usize) -> Self {
        self.edge(u, v, 1.0)
    }

    /// Records a batch of unit-weight edges.
    #[must_use]
    pub fn unit_edges<I>(mut self, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        for (u, v) in edges {
            self.edges.push((u, v, 1.0));
        }
        self
    }

    /// Builds the graph.
    ///
    /// # Panics
    ///
    /// Panics if any recorded edge is invalid (self-loop, duplicate, bad
    /// weight); use [`GraphBuilder::try_build`] for fallible construction.
    #[must_use]
    pub fn build(self) -> Graph {
        self.try_build().expect("invalid edge in GraphBuilder")
    }

    /// Builds the graph, reporting the first invalid edge.
    ///
    /// # Errors
    ///
    /// Returns an error for self-loops, duplicate edges, or invalid weights.
    pub fn try_build(self) -> Result<Graph> {
        let n = self
            .edges
            .iter()
            .map(|&(u, v, _)| u.max(v) + 1)
            .max()
            .unwrap_or(0)
            .max(self.min_vertices);
        let mut g = Graph::with_capacity(n, self.edges.len());
        for (u, v, w) in self.edges {
            g.try_add_edge(u, v, w)?;
        }
        g.compact();
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_unit_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn new_graph_is_empty() {
        let g = Graph::new(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert!(g.is_unit_weighted());
        assert!(g.is_compacted());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn add_edge_updates_adjacency_both_ways() {
        let mut g = Graph::new(3);
        let e = g.add_edge(0, 2, 1.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(VertexId::new(0)), 1);
        assert_eq!(g.degree(VertexId::new(2)), 1);
        assert_eq!(g.degree(VertexId::new(1)), 0);
        let nbrs: Vec<_> = g.neighbors(VertexId::new(0)).collect();
        assert_eq!(nbrs, vec![(VertexId::new(2), e)]);
        let nbrs: Vec<_> = g.neighbors(VertexId::new(2)).collect();
        assert_eq!(nbrs, vec![(VertexId::new(0), e)]);
    }

    #[test]
    fn compact_preserves_every_observation() {
        let mut g = Graph::new(6);
        g.add_edge(0, 3, 2.0);
        g.add_edge(0, 1, 1.0);
        g.add_edge(3, 5, 1.5);
        g.add_edge(0, 2, 1.0);
        let before: Vec<(usize, Vec<(VertexId, EdgeId)>)> = (0..6)
            .map(|v| {
                let mut nbrs: Vec<_> = g.neighbors(VertexId::new(v)).collect();
                nbrs.sort_unstable();
                (g.degree(VertexId::new(v)), nbrs)
            })
            .collect();
        assert!(!g.is_compacted());
        g.compact();
        assert!(g.is_compacted());
        for (v, expected) in before.iter().enumerate() {
            let mut nbrs: Vec<_> = g.neighbors(VertexId::new(v)).collect();
            nbrs.sort_unstable();
            assert_eq!(&(g.degree(VertexId::new(v)), nbrs), expected);
        }
        // Compacted slices are sorted by neighbor id.
        let ids: Vec<u32> = g
            .neighbors(VertexId::new(0))
            .map(|(n, _)| n.as_u32())
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // Compacting twice is a no-op.
        g.compact();
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn edge_between_works_across_core_and_pending() {
        let mut g = Graph::new(8);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 5, 1.0);
        g.compact();
        // Now some edges only in the pending buffer.
        g.add_edge(0, 3, 1.0);
        g.add_edge(2, 7, 1.0);
        assert!(g.has_edge_between(0, 1)); // core
        assert!(g.has_edge_between(0, 3)); // pending
        assert!(g.has_edge_between(7, 2)); // pending, reversed
        assert!(!g.has_edge_between(0, 4));
        assert_eq!(g.degree(VertexId::new(0)), 3);
    }

    #[test]
    fn automatic_compaction_keeps_growing_graphs_queryable() {
        // Enough edges to cross the self-compaction threshold several times.
        let n = 300;
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_unit_edge(i, i + 1);
        }
        for i in 0..n - 2 {
            g.add_unit_edge(i, i + 2);
        }
        assert_eq!(g.edge_count(), 2 * n - 3);
        for i in 0..n - 2 {
            assert!(g.has_edge_between(i, i + 1));
            assert!(g.has_edge_between(i, i + 2));
            assert!(!g.has_edge_between(i, i + 3) || i + 3 >= n);
        }
        g.compact();
        assert_eq!(g.edge_count(), 2 * n - 3);
        assert_eq!(g.degree(VertexId::new(10)), 4);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.try_add_edge(1, 1, 1.0),
            Err(GraphError::SelfLoop { .. })
        ));
    }

    #[test]
    fn parallel_edge_rejected_in_both_orientations() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        assert!(matches!(
            g.try_add_edge(0, 1, 2.0),
            Err(GraphError::ParallelEdge { .. })
        ));
        assert!(matches!(
            g.try_add_edge(1, 0, 2.0),
            Err(GraphError::ParallelEdge { .. })
        ));
        // Also after compaction (binary-search path).
        g.compact();
        assert!(matches!(
            g.try_add_edge(0, 1, 2.0),
            Err(GraphError::ParallelEdge { .. })
        ));
    }

    #[test]
    fn out_of_range_vertex_rejected() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.try_add_edge(0, 3, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 3, .. })
        ));
    }

    #[test]
    fn invalid_weight_rejected() {
        let mut g = Graph::new(3);
        assert!(g.try_add_edge(0, 1, -1.0).is_err());
        assert!(g.try_add_edge(0, 1, f64::NAN).is_err());
        assert!(g.try_add_edge(0, 1, f64::INFINITY).is_err());
        assert!(g.try_add_edge(0, 1, 0.0).is_ok());
    }

    #[test]
    fn unit_weight_tracking() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        assert!(g.is_unit_weighted());
        g.add_edge(1, 2, 2.0);
        assert!(!g.is_unit_weighted());
    }

    #[test]
    fn edge_between_and_has_edge() {
        let g = path_graph(4);
        assert!(g.has_edge_between(0, 1));
        assert!(g.has_edge_between(1, 0));
        assert!(!g.has_edge_between(0, 2));
        assert!(!g.has_edge_between(0, 99));
        assert!(g.edge_between(VertexId::new(2), VertexId::new(3)).is_some());
        assert!(g.edge_between(VertexId::new(2), VertexId::new(2)).is_none());
        assert!(g
            .edge_between(VertexId::new(0), VertexId::new(99))
            .is_none());
    }

    #[test]
    fn edge_ids_by_weight_sorts_nondecreasing() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 3.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 2.0);
        let order = g.edge_ids_by_weight();
        let weights: Vec<f64> = order.iter().map(|&e| g.weight(e)).collect();
        assert_eq!(weights, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn edge_ids_by_weight_breaks_ties_by_insertion() {
        let mut g = Graph::new(4);
        let a = g.add_edge(0, 1, 1.0);
        let b = g.add_edge(1, 2, 1.0);
        let c = g.add_edge(2, 3, 1.0);
        assert_eq!(g.edge_ids_by_weight(), vec![a, b, c]);
    }

    #[test]
    fn total_weight_sums_all_edges() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.5);
        g.add_edge(1, 2, 2.5);
        assert!((g.total_weight() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn edge_subgraph_keeps_vertex_set() {
        let g = path_graph(5);
        let ids: Vec<EdgeId> = g.edge_ids().take(2).collect();
        let sub = g.edge_subgraph(ids);
        assert_eq!(sub.vertex_count(), 5);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.is_compacted());
        assert!(sub.has_edge_between(0, 1));
        assert!(sub.has_edge_between(1, 2));
        assert!(!sub.has_edge_between(2, 3));
        assert!(sub.is_edge_subgraph_of(&g));
    }

    #[test]
    fn induced_subgraph_maps_back_to_original_ids() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(4, 5, 1.0);
        g.add_edge(1, 4, 7.0);
        let community = vec![VertexId::new(1), VertexId::new(2), VertexId::new(4)];
        let (sub, original) = g.induced_subgraph(&community);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(original, community);
        // Edges inside the community: {1,2} and {1,4}.
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.has_edge_between(0, 1)); // 1-2
        assert!(sub.has_edge_between(0, 2)); // 1-4
        let e = sub
            .edge_between(VertexId::new(0), VertexId::new(2))
            .unwrap();
        assert_eq!(sub.weight(e), 7.0);
    }

    #[test]
    fn induced_subgraph_deduplicates_vertices() {
        let g = path_graph(4);
        let community = vec![VertexId::new(1), VertexId::new(1), VertexId::new(2)];
        let (sub, original) = g.induced_subgraph(&community);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(original.len(), 2);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn union_edges_merges_without_duplicates() {
        let mut a = Graph::new(4);
        a.add_edge(0, 1, 1.0);
        a.add_edge(1, 2, 1.0);
        let mut b = Graph::new(4);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        let added = a.union_edges_from(&b);
        assert_eq!(added, 1);
        assert_eq!(a.edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "same vertex set")]
    fn union_edges_panics_on_mismatched_vertex_sets() {
        let mut a = Graph::new(3);
        let b = Graph::new(4);
        a.union_edges_from(&b);
    }

    #[test]
    fn builder_grows_vertex_count_to_cover_endpoints() {
        let g = GraphBuilder::new().unit_edge(0, 9).build();
        assert_eq!(g.vertex_count(), 10);
        assert_eq!(g.edge_count(), 1);
        assert!(g.is_compacted());
    }

    #[test]
    fn builder_respects_minimum_vertex_count() {
        let g = GraphBuilder::new().vertices(20).unit_edge(0, 1).build();
        assert_eq!(g.vertex_count(), 20);
    }

    #[test]
    fn builder_try_build_propagates_errors() {
        let r = GraphBuilder::new().edge(0, 0, 1.0).try_build();
        assert!(matches!(r, Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn builder_unit_edges_batch() {
        let g = GraphBuilder::new()
            .unit_edges([(0, 1), (1, 2), (2, 3)])
            .build();
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_unit_weighted());
    }

    #[test]
    fn empty_like_preserves_vertex_count_only() {
        let g = path_graph(7);
        let h = Graph::empty_like(&g);
        assert_eq!(h.vertex_count(), 7);
        assert_eq!(h.edge_count(), 0);
    }

    #[test]
    fn degree_statistics() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(0, 2);
        g.add_unit_edge(0, 3);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn memory_bytes_tracks_storage_growth() {
        let empty = Graph::new(0);
        let small = path_graph(10);
        let mut big = path_graph(1000);
        assert!(empty.memory_bytes() < small.memory_bytes());
        assert!(small.memory_bytes() < big.memory_bytes());
        // Compaction frees the pending buffers, so it never grows the bill by
        // more than the CSR rebuild slack.
        big.compact();
        assert!(big.memory_bytes() >= 2 * 999 * core::mem::size_of::<(VertexId, EdgeId)>());
    }

    #[test]
    fn default_graph_is_the_empty_graph() {
        let g = Graph::default();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_compacted());
    }
}
