//! Strongly-typed identifiers for vertices and edges.
//!
//! Using newtypes instead of bare `usize` values prevents an entire class of
//! bugs where a vertex index is accidentally used to index the edge table (or
//! vice versa), which matters in this workspace because the spanner algorithms
//! juggle both kinds of indices inside tight loops.

use core::fmt;

/// Identifier of a vertex inside a [`Graph`](crate::Graph).
///
/// Vertex identifiers are dense: a graph with `n` vertices uses exactly the
/// identifiers `0..n`. They are created either by
/// [`VertexId::new`] or by the graph construction APIs.
///
/// # Examples
///
/// ```
/// use ftspan_graph::VertexId;
///
/// let v = VertexId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "v3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(u32);

impl VertexId {
    /// Creates a vertex identifier from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`. Graphs of more than
    /// 2^32 − 1 vertices are outside the supported range of this crate.
    #[inline]
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(u32::try_from(index).expect("vertex index exceeds u32::MAX"))
    }

    /// Returns the dense index of this vertex.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` representation.
    #[inline]
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(value: u32) -> Self {
        Self(value)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(value: VertexId) -> Self {
        value.0
    }
}

impl From<VertexId> for usize {
    #[inline]
    fn from(value: VertexId) -> Self {
        value.index()
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an edge inside a [`Graph`](crate::Graph).
///
/// Edge identifiers are dense: a graph with `m` edges uses exactly the
/// identifiers `0..m`, in insertion order.
///
/// # Examples
///
/// ```
/// use ftspan_graph::EdgeId;
///
/// let e = EdgeId::new(7);
/// assert_eq!(e.index(), 7);
/// assert_eq!(format!("{e}"), "e7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge identifier from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(u32::try_from(index).expect("edge index exceeds u32::MAX"))
    }

    /// Returns the dense index of this edge.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` representation.
    #[inline]
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for EdgeId {
    #[inline]
    fn from(value: u32) -> Self {
        Self(value)
    }
}

impl From<EdgeId> for u32 {
    #[inline]
    fn from(value: EdgeId) -> Self {
        value.0
    }
}

impl From<EdgeId> for usize {
    #[inline]
    fn from(value: EdgeId) -> Self {
        value.index()
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A bidirectional mapping between a graph's global vertex identifiers and
/// the dense local identifiers of an extracted region (an induced subgraph,
/// typically a shard plus its halo).
///
/// Local identifiers are assigned in the order the members were listed, so a
/// region built from a sorted member list has deterministic local ids — the
/// property the sharded serving layer relies on for reproducible caching.
///
/// # Examples
///
/// ```
/// use ftspan_graph::{vid, IdRemap};
///
/// let remap = IdRemap::from_members(10, &[vid(7), vid(2), vid(9)]);
/// assert_eq!(remap.local_count(), 3);
/// assert_eq!(remap.to_local(vid(2)), Some(vid(1)));
/// assert_eq!(remap.to_global(vid(1)), vid(2));
/// assert_eq!(remap.to_local(vid(3)), None);
/// ```
#[derive(Clone, Debug)]
pub struct IdRemap {
    to_global: Vec<VertexId>,
    universe_size: usize,
    /// One entry per [`REMAP_PAGE`]-sized page of the global id space;
    /// [`REMAP_ABSENT`] marks a page with no members, otherwise the value
    /// indexes the page's slot block in `pages`.
    page_of: Vec<u32>,
    /// Allocated pages, [`REMAP_PAGE`] slots each; [`REMAP_ABSENT`] marks a
    /// non-member global id, any other value is the local id.
    pages: Vec<u32>,
}

/// Page width of the global→local map. Regions are halos around BFS balls, so
/// their members cluster in id space; 64-id pages keep the map a few percent
/// of a dense `Vec<Option<VertexId>>` over a 10⁶-vertex universe while
/// staying a two-load lookup.
const REMAP_PAGE: usize = 64;
/// Sentinel for "absent" in both the page index and page slots.
const REMAP_ABSENT: u32 = u32::MAX;

impl IdRemap {
    /// Builds the mapping for the given members of a universe of
    /// `universe_size` global vertices. Duplicate members keep their first
    /// position; members out of range are ignored.
    #[must_use]
    pub fn from_members(universe_size: usize, members: &[VertexId]) -> Self {
        let page_count = universe_size.div_ceil(REMAP_PAGE);
        let mut page_of: Vec<u32> = vec![REMAP_ABSENT; page_count];
        let mut pages: Vec<u32> = Vec::new();
        let mut to_global = Vec::with_capacity(members.len());
        for &v in members {
            if v.index() >= universe_size {
                continue;
            }
            let page = v.index() / REMAP_PAGE;
            if page_of[page] == REMAP_ABSENT {
                page_of[page] = u32::try_from(pages.len() / REMAP_PAGE)
                    .expect("remap page count exceeds u32::MAX");
                pages.resize(pages.len() + REMAP_PAGE, REMAP_ABSENT);
            }
            let slot = (page_of[page] as usize) * REMAP_PAGE + v.index() % REMAP_PAGE;
            if pages[slot] == REMAP_ABSENT {
                pages[slot] = u32::try_from(to_global.len()).expect("local id exceeds u32::MAX");
                to_global.push(v);
            }
        }
        Self {
            to_global,
            universe_size,
            page_of,
            pages,
        }
    }

    /// Number of vertices in the region (the local identifier space).
    #[inline]
    #[must_use]
    pub fn local_count(&self) -> usize {
        self.to_global.len()
    }

    /// Size of the global identifier space the mapping was built over.
    #[inline]
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// The region members, in local-id order (`members()[i]` is the global
    /// id of local vertex `i`).
    #[inline]
    #[must_use]
    pub fn members(&self) -> &[VertexId] {
        &self.to_global
    }

    /// Maps a global vertex into the region, or `None` if it is not a member
    /// (or out of range).
    #[inline]
    #[must_use]
    pub fn to_local(&self, global: VertexId) -> Option<VertexId> {
        if global.index() >= self.universe_size {
            return None;
        }
        let page = self.page_of[global.index() / REMAP_PAGE];
        if page == REMAP_ABSENT {
            return None;
        }
        let slot = (page as usize) * REMAP_PAGE + global.index() % REMAP_PAGE;
        let local = self.pages[slot];
        (local != REMAP_ABSENT).then_some(VertexId(local))
    }

    /// Heap bytes held by the mapping (capacity, not just length), the number
    /// the scale tier's memory audit sums per region. The paged global→local
    /// map costs `O(local_count + universe/64)` instead of the dense map's
    /// `O(universe)`.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.to_global.capacity() * core::mem::size_of::<VertexId>()
            + self.page_of.capacity() * core::mem::size_of::<u32>()
            + self.pages.capacity() * core::mem::size_of::<u32>()
    }

    /// Returns `true` if the global vertex belongs to the region.
    #[inline]
    #[must_use]
    pub fn contains(&self, global: VertexId) -> bool {
        self.to_local(global).is_some()
    }

    /// Maps a local vertex back to its global identifier.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range for the region.
    #[inline]
    #[must_use]
    pub fn to_global(&self, local: VertexId) -> VertexId {
        self.to_global[local.index()]
    }

    /// Re-expresses a local path in global identifiers.
    #[must_use]
    pub fn globalize_path(&self, path: &[VertexId]) -> Vec<VertexId> {
        path.iter().map(|&v| self.to_global(v)).collect()
    }

    /// Maps the global vertices that belong to the region into local ids,
    /// silently dropping non-members (the tolerance serving layers need when
    /// restricting a global fault set to one shard).
    #[must_use]
    pub fn localize_vertices<I>(&self, vertices: I) -> Vec<VertexId>
    where
        I: IntoIterator<Item = VertexId>,
    {
        vertices
            .into_iter()
            .filter_map(|v| self.to_local(v))
            .collect()
    }
}

/// Convenience constructor used pervasively in tests and examples.
///
/// # Examples
///
/// ```
/// use ftspan_graph::{vid, VertexId};
/// assert_eq!(vid(2), VertexId::new(2));
/// ```
#[inline]
#[must_use]
pub fn vid(index: usize) -> VertexId {
    VertexId::new(index)
}

/// Convenience constructor for [`EdgeId`] used in tests and examples.
///
/// # Examples
///
/// ```
/// use ftspan_graph::{eid, EdgeId};
/// assert_eq!(eid(2), EdgeId::new(2));
/// ```
#[inline]
#[must_use]
pub fn eid(index: usize) -> EdgeId {
    EdgeId::new(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vertex_id_round_trips_through_index() {
        for i in [0usize, 1, 5, 1000, 1 << 20] {
            assert_eq!(VertexId::new(i).index(), i);
        }
    }

    #[test]
    fn edge_id_round_trips_through_index() {
        for i in [0usize, 1, 5, 1000, 1 << 20] {
            assert_eq!(EdgeId::new(i).index(), i);
        }
    }

    #[test]
    fn vertex_id_ordering_matches_index_ordering() {
        assert!(VertexId::new(1) < VertexId::new(2));
        assert!(VertexId::new(100) > VertexId::new(99));
        assert_eq!(VertexId::new(7), VertexId::new(7));
    }

    #[test]
    fn display_and_debug_are_nonempty_and_distinctive() {
        assert_eq!(format!("{}", vid(12)), "v12");
        assert_eq!(format!("{:?}", vid(12)), "v12");
        assert_eq!(format!("{}", eid(3)), "e3");
        assert_eq!(format!("{:?}", eid(3)), "e3");
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let set: HashSet<VertexId> = (0..100).map(VertexId::new).collect();
        assert_eq!(set.len(), 100);
        let eset: HashSet<EdgeId> = (0..100).map(EdgeId::new).collect();
        assert_eq!(eset.len(), 100);
    }

    #[test]
    fn conversions_to_and_from_u32() {
        let v: VertexId = 9u32.into();
        assert_eq!(u32::from(v), 9);
        assert_eq!(usize::from(v), 9);
        let e: EdgeId = 11u32.into();
        assert_eq!(u32::from(e), 11);
        assert_eq!(usize::from(e), 11);
    }

    #[test]
    #[should_panic(expected = "vertex index exceeds u32::MAX")]
    fn vertex_id_overflow_panics() {
        let _ = VertexId::new(usize::try_from(u64::from(u32::MAX) + 1).unwrap());
    }

    #[test]
    fn remap_round_trips_members_in_order() {
        let remap = IdRemap::from_members(8, &[vid(5), vid(0), vid(3)]);
        assert_eq!(remap.local_count(), 3);
        assert_eq!(remap.universe_size(), 8);
        assert_eq!(remap.members(), &[vid(5), vid(0), vid(3)]);
        for (local, &global) in remap.members().iter().enumerate() {
            assert_eq!(remap.to_local(global), Some(vid(local)));
            assert_eq!(remap.to_global(vid(local)), global);
        }
        assert!(remap.contains(vid(0)));
        assert!(!remap.contains(vid(1)));
        assert_eq!(remap.to_local(vid(100)), None, "out of range maps to None");
    }

    #[test]
    fn remap_ignores_duplicates_and_out_of_range_members() {
        let remap = IdRemap::from_members(4, &[vid(2), vid(2), vid(9), vid(1)]);
        assert_eq!(remap.members(), &[vid(2), vid(1)]);
        assert_eq!(remap.to_local(vid(2)), Some(vid(0)));
    }

    #[test]
    fn remap_handles_sparse_high_id_members_with_paged_storage() {
        // Members scattered near the top of a large universe: the paged map
        // must allocate only the touched pages.
        let universe = 1 << 20;
        let members: Vec<VertexId> = (0..200).map(|i| vid(universe - 1 - i * 4097)).collect();
        let remap = IdRemap::from_members(universe, &members);
        assert_eq!(remap.local_count(), members.len());
        assert_eq!(remap.universe_size(), universe);
        for (local, &global) in members.iter().enumerate() {
            assert_eq!(remap.to_local(global), Some(vid(local)));
            assert_eq!(remap.to_global(vid(local)), global);
        }
        assert_eq!(remap.to_local(vid(0)), None);
        assert_eq!(remap.to_local(vid(universe - 2)), None);
        assert_eq!(remap.to_local(vid(universe)), None);
        // Sparse members cost pages, not the universe: far below the dense
        // map's ~8 MiB for a 2^20 universe.
        assert!(
            remap.memory_bytes() < universe / 4,
            "paged remap used {} bytes",
            remap.memory_bytes()
        );
    }

    #[test]
    fn remap_page_boundaries_round_trip() {
        // Ids straddling page edges (63/64/65, 127/128) and a duplicate on a
        // boundary exercise the slot arithmetic.
        let members = [
            vid(63),
            vid(64),
            vid(65),
            vid(127),
            vid(128),
            vid(64),
            vid(0),
        ];
        let remap = IdRemap::from_members(130, &members);
        assert_eq!(
            remap.members(),
            &[vid(63), vid(64), vid(65), vid(127), vid(128), vid(0)]
        );
        for (local, &global) in remap.members().iter().enumerate() {
            assert_eq!(remap.to_local(global), Some(vid(local)));
        }
        assert_eq!(remap.to_local(vid(62)), None);
        assert_eq!(remap.to_local(vid(129)), None);
    }

    #[test]
    fn remap_translates_paths_and_filters_vertices() {
        let remap = IdRemap::from_members(6, &[vid(4), vid(1), vid(5)]);
        assert_eq!(
            remap.globalize_path(&[vid(0), vid(2), vid(1)]),
            vec![vid(4), vid(5), vid(1)]
        );
        assert_eq!(
            remap.localize_vertices([vid(1), vid(3), vid(5)]),
            vec![vid(1), vid(2)]
        );
    }
}
