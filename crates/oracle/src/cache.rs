//! The fault-set-keyed LRU cache of shortest-path trees.
//!
//! One Dijkstra run from a source `s` on `H ∖ F` answers every `(s, *)`
//! query under the same fault set, so the natural cache granularity is a
//! **tree**, grouped per fault set: real query traffic is bursty in `F`
//! (a fault wave stays active while many queries arrive), which makes the
//! per-fault-set hit rate high even with a small capacity.
//!
//! The store is a flat vector of slots scanned by fingerprint — at serving
//! capacities (a few hundred fault sets) a contiguous scan of `u64`s beats a
//! hash map, and it makes LRU eviction a `swap_remove` that *moves* the
//! victim out instead of cloning its key. Lookups on the query hot path go
//! through [`KeyRef`], a borrowed key derived from the fault set in `O(|F|)`
//! with **zero heap allocation**; an owned [`CacheKey`] is only materialized
//! when a freshly computed tree is inserted (the miss path).
//!
//! Each entry also keeps its root's **escape distance** (see
//! [`CachedTree::escape`]): a pure function of the same key and root, so it is
//! computed once per built tree and read back with it on every hit.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ftspan::FaultSet;
use ftspan_graph::dijkstra::ShortestPathTree;
use ftspan_graph::{fault_fingerprint, EdgeId, VertexId};

/// Exact owned cache key for one fault set.
///
/// `Hash` uses only the precomputed fingerprint; `Eq` compares the full
/// sorted fault lists, so a (astronomically unlikely) fingerprint collision
/// degrades to a bucket collision, never to a wrong answer.
///
/// Keys carry no region qualifier. Fault fingerprints are computed over
/// *local* element indices, so two shard regions of a
/// [`ShardedOracle`](crate::ShardedOracle) with identical local fault
/// patterns derive equal keys; that is sound because every region owns its
/// own cache, so keys of two regions never meet in one.
#[derive(Clone, Debug, Eq)]
pub struct CacheKey {
    fingerprint: u64,
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
}

impl CacheKey {
    /// Builds the key for a fault set (fault sets are sorted and
    /// deduplicated by construction).
    #[must_use]
    pub fn from_fault_set(faults: &FaultSet) -> Self {
        KeyRef::new(faults).to_owned_key()
    }

    /// The fingerprint used for hashing.
    #[inline]
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Exact comparison against a borrowed key, allocation-free: fingerprint
    /// first, then the full sorted fault lists.
    #[inline]
    fn matches(&self, key: &KeyRef<'_>) -> bool {
        self.fingerprint == key.fingerprint
            && self.vertices.as_slice() == key.faults.vertex_faults()
            && self.edges.as_slice() == key.faults.edge_faults()
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.vertices == other.vertices
            && self.edges == other.edges
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// A borrowed cache key: precomputed fingerprint and a reference to the
/// fault set. Deriving one costs `O(|F|)` fingerprint mixing and no
/// heap allocation, which is what keeps the cached-tree hit path
/// allocation-free. [`KeyRef::to_owned_key`] materializes the owned
/// [`CacheKey`] for insertion.
#[derive(Clone, Copy, Debug)]
pub struct KeyRef<'a> {
    fingerprint: u64,
    faults: &'a FaultSet,
}

impl<'a> KeyRef<'a> {
    /// Derives the borrowed key for a fault set.
    #[must_use]
    pub fn new(faults: &'a FaultSet) -> Self {
        let fingerprint = fault_fingerprint(
            faults.vertex_faults().iter().copied(),
            faults.edge_faults().iter().copied(),
        );
        Self {
            fingerprint,
            faults,
        }
    }

    /// The fault-set fingerprint.
    #[inline]
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fault set the key refers to.
    #[inline]
    #[must_use]
    pub fn faults(&self) -> &'a FaultSet {
        self.faults
    }

    /// Materializes the owned key (allocates; used on the insert/miss path).
    #[must_use]
    pub fn to_owned_key(&self) -> CacheKey {
        CacheKey {
            fingerprint: self.fingerprint,
            vertices: self.faults.vertex_faults().to_vec(),
            edges: self.faults.edge_faults().to_vec(),
        }
    }
}

/// What one cache entry holds: a shortest-path tree on `H ∖ F` and its
/// root's escape distance, both functions of the same fault set and root.
/// Readers share it by [`Arc`] handle.
#[derive(Debug)]
pub struct CachedTree {
    /// The shortest-path tree.
    pub tree: ShortestPathTree,
    /// The root's distance in `H ∖ F` to the nearest vertex of the escape
    /// set the tree was built for, or `None` when no escape vertex is
    /// reachable (always `None` for an empty escape set). A shard region's
    /// escape set is its frontier.
    pub escape: Option<f64>,
}

impl CachedTree {
    /// Wraps a freshly built tree, computing its escape distance over
    /// `escape` (`O(|escape|)`; free for an empty set).
    #[must_use]
    pub fn new(tree: ShortestPathTree, escape: &[VertexId]) -> Self {
        let escape = escape
            .iter()
            .filter_map(|&x| tree.distance_to(x))
            .min_by(f64::total_cmp);
        Self { tree, escape }
    }
}

/// All cached trees for one fault set. Trees are kept in a small vector —
/// a fault set rarely accumulates more than a few dozen roots, and a linear
/// scan of `(VertexId, Arc)` pairs is cheaper than hashing at that size.
#[derive(Debug)]
struct CacheSlot {
    key: CacheKey,
    trees: Vec<(VertexId, Arc<CachedTree>)>,
    last_used: u64,
}

/// An LRU cache of shortest-path trees grouped by fault set.
///
/// The cache is a plain data structure; the oracle wraps it in a mutex and
/// keeps tree payloads behind [`Arc`] so workers clone a handle and release
/// the lock before walking the tree. Eviction is least-recently-used over
/// fault sets; all trees of an evicted fault set go together, and the victim
/// is moved out by `swap_remove` — no key clone on the eviction path.
///
/// Lookup cost: a linear scan of a **dense `u64` fingerprint array** (one
/// word per cached fault set, exact key confirmation only on a fingerprint
/// hit). At serving capacities — the oracles use 128 fault sets, and a few
/// thousand is typical headroom — this is faster than a hash map probe and
/// keeps eviction clone-free; a pathologically large capacity (hundreds of
/// thousands) would pay O(capacity) per lookup under the cache mutex, so
/// capacity should scale with the number of *concurrently hot* fault sets,
/// not the total ever seen.
#[derive(Debug)]
pub struct TreeCache {
    capacity: usize,
    /// `fingerprints[i]` mirrors `slots[i].key.fingerprint()`: the dense
    /// scan lane (8 bytes per slot) for lookups.
    fingerprints: Vec<u64>,
    slots: Vec<CacheSlot>,
    tick: u64,
    trees_cached: usize,
}

impl TreeCache {
    /// Creates a cache holding at most `capacity` fault sets (0 disables
    /// caching: every lookup misses and stores nothing).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            fingerprints: Vec::with_capacity(capacity.min(1024)),
            slots: Vec::with_capacity(capacity.min(1024)),
            tick: 0,
            trees_cached: 0,
        }
    }

    /// Index of the slot exactly matching the borrowed key: scan the dense
    /// fingerprint lane, confirm on the full key only at fingerprint hits
    /// (fingerprint collisions between distinct fault sets are ~2⁻⁶⁴).
    fn position_matching(&self, key: &KeyRef<'_>) -> Option<usize> {
        let wanted = key.fingerprint;
        self.fingerprints
            .iter()
            .enumerate()
            .find_map(|(i, &fp)| (fp == wanted && self.slots[i].key.matches(key)).then_some(i))
    }

    /// Index of the slot exactly matching the owned key.
    fn position_matching_owned(&self, key: &CacheKey) -> Option<usize> {
        let wanted = key.fingerprint;
        self.fingerprints
            .iter()
            .enumerate()
            .find_map(|(i, &fp)| (fp == wanted && self.slots[i].key == *key).then_some(i))
    }

    /// The configured capacity in fault sets.
    #[inline]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of fault sets currently cached.
    #[must_use]
    pub fn fault_sets_cached(&self) -> usize {
        self.slots.len()
    }

    /// Number of trees currently cached across all fault sets.
    #[must_use]
    pub fn trees_cached(&self) -> usize {
        self.trees_cached
    }

    /// Looks up the tree rooted at `source` under the given borrowed key,
    /// refreshing the slot's recency on a fault-set hit. Allocation-free
    /// apart from the `Arc` handle clone.
    #[must_use]
    pub fn get_ref(&mut self, key: &KeyRef<'_>, source: VertexId) -> Option<Arc<CachedTree>> {
        self.tick += 1;
        let tick = self.tick;
        let i = self.position_matching(key)?;
        let slot = &mut self.slots[i];
        slot.last_used = tick;
        slot.trees
            .iter()
            .find(|&&(s, _)| s == source)
            .map(|(_, tree)| Arc::clone(tree))
    }

    /// Looks up a tree rooted at either endpoint (`u` preferred) with a
    /// single slot scan — the undirected query path's hit probe.
    #[must_use]
    pub fn get_either_ref(
        &mut self,
        key: &KeyRef<'_>,
        u: VertexId,
        v: VertexId,
    ) -> Option<Arc<CachedTree>> {
        self.tick += 1;
        let tick = self.tick;
        let i = self.position_matching(key)?;
        let slot = &mut self.slots[i];
        slot.last_used = tick;
        let mut fallback = None;
        for (root, tree) in &slot.trees {
            if *root == u {
                return Some(Arc::clone(tree));
            }
            if *root == v && fallback.is_none() {
                fallback = Some(tree);
            }
        }
        fallback.map(Arc::clone)
    }

    /// Looks up the tree rooted at `source` under an owned key (test and
    /// tooling convenience; the hot path uses [`TreeCache::get_ref`]).
    #[must_use]
    pub fn get(&mut self, key: &CacheKey, source: VertexId) -> Option<Arc<CachedTree>> {
        self.tick += 1;
        let tick = self.tick;
        let i = self.position_matching_owned(key)?;
        let slot = &mut self.slots[i];
        slot.last_used = tick;
        slot.trees
            .iter()
            .find(|&&(s, _)| s == source)
            .map(|(_, tree)| Arc::clone(tree))
    }

    /// Inserts a tree, evicting the least-recently-used fault set when a new
    /// fault set would exceed capacity. With capacity 0 this is a no-op.
    pub fn insert(&mut self, key: CacheKey, source: VertexId, tree: Arc<CachedTree>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(i) = self.position_matching_owned(&key) {
            let slot = &mut self.slots[i];
            slot.last_used = tick;
            if let Some(entry) = slot.trees.iter_mut().find(|(s, _)| *s == source) {
                entry.1 = tree;
            } else {
                slot.trees.push((source, tree));
                self.trees_cached += 1;
            }
            return;
        }
        if self.slots.len() >= self.capacity {
            if let Some(victim) = (0..self.slots.len()).min_by_key(|&i| self.slots[i].last_used) {
                // The victim slot is moved out whole; its key is dropped
                // without an intermediate clone. The fingerprint lane mirrors
                // the swap_remove.
                let evicted = self.slots.swap_remove(victim);
                self.fingerprints.swap_remove(victim);
                self.trees_cached -= evicted.trees.len();
            }
        }
        self.fingerprints.push(key.fingerprint());
        self.slots.push(CacheSlot {
            key,
            trees: vec![(source, tree)],
            last_used: tick,
        });
        self.trees_cached += 1;
    }

    /// Heap bytes held by the cache: the fingerprint lane, every slot's key
    /// (sorted fault lists) and every cached tree's distance/parent arrays.
    /// Trees are counted once per cache entry — a tree `Arc` also held by a
    /// reader is still attributed here, since the cache is what keeps it
    /// alive past the query.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.fingerprints.capacity() * std::mem::size_of::<u64>()
            + self.slots.capacity() * std::mem::size_of::<CacheSlot>();
        for slot in &self.slots {
            bytes += slot.key.vertices.capacity() * std::mem::size_of::<VertexId>()
                + slot.key.edges.capacity() * std::mem::size_of::<EdgeId>()
                + slot
                    .trees
                    .capacity()
                    .saturating_mul(std::mem::size_of::<(VertexId, Arc<CachedTree>)>());
            for (_, cached) in &slot.trees {
                bytes += cached.tree.memory_bytes();
            }
        }
        bytes
    }

    /// Drops every cached tree (used when the spanner or damage changes).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.fingerprints.clear();
        self.trees_cached = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::dijkstra::DijkstraScratch;
    use ftspan_graph::{eid, generators, vid};

    fn tree_for(source: usize) -> Arc<CachedTree> {
        let g = generators::path(6);
        let tree = DijkstraScratch::new().shortest_path_tree(&g, vid(source));
        Arc::new(CachedTree::new(tree, &[]))
    }

    #[test]
    fn keys_are_equal_iff_fault_sets_are() {
        let a = CacheKey::from_fault_set(&FaultSet::vertices([vid(3), vid(1)]));
        let b = CacheKey::from_fault_set(&FaultSet::vertices([vid(1), vid(3)]));
        let c = CacheKey::from_fault_set(&FaultSet::vertices([vid(1)]));
        let d = CacheKey::from_fault_set(&FaultSet::edges([eid(1), eid(3)]));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn key_ref_agrees_with_owned_key() {
        let faults = FaultSet::vertices([vid(2), vid(9)]);
        let owned = CacheKey::from_fault_set(&faults);
        let borrowed = KeyRef::new(&faults);
        assert_eq!(owned.fingerprint(), borrowed.fingerprint());
        assert_eq!(borrowed.to_owned_key(), owned);
        assert!(owned.matches(&borrowed));
        // A mismatched fault set must not match, even under a forged
        // fingerprint.
        let other = FaultSet::vertices([vid(2)]);
        assert!(!owned.matches(&KeyRef::new(&other)));
        let forged = KeyRef {
            fingerprint: owned.fingerprint(),
            faults: &other,
        };
        assert!(!owned.matches(&forged));
    }

    #[test]
    fn hit_and_miss_roundtrip() {
        let mut cache = TreeCache::new(4);
        let faults = FaultSet::vertices([vid(2)]);
        let key = CacheKey::from_fault_set(&faults);
        assert!(cache.get(&key, vid(0)).is_none());
        cache.insert(key.clone(), vid(0), tree_for(0));
        let hit = cache.get(&key, vid(0)).expect("cached");
        assert_eq!(hit.tree.source(), vid(0));
        assert!(
            cache.get(&key, vid(1)).is_none(),
            "other sources still miss"
        );
        // Borrowed-key lookups see the same entry.
        let hit = cache
            .get_ref(&KeyRef::new(&faults), vid(0))
            .expect("cached");
        assert_eq!(hit.tree.source(), vid(0));
        assert_eq!(cache.fault_sets_cached(), 1);
        assert_eq!(cache.trees_cached(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_fault_set() {
        let mut cache = TreeCache::new(2);
        let k1 = CacheKey::from_fault_set(&FaultSet::vertices([vid(1)]));
        let k2 = CacheKey::from_fault_set(&FaultSet::vertices([vid(2)]));
        let k3 = CacheKey::from_fault_set(&FaultSet::vertices([vid(3)]));
        cache.insert(k1.clone(), vid(0), tree_for(0));
        cache.insert(k2.clone(), vid(0), tree_for(0));
        // Touch k1 so k2 becomes the LRU.
        assert!(cache.get(&k1, vid(0)).is_some());
        cache.insert(k3.clone(), vid(0), tree_for(0));
        assert_eq!(cache.fault_sets_cached(), 2);
        assert!(cache.get(&k1, vid(0)).is_some());
        assert!(cache.get(&k2, vid(0)).is_none(), "k2 evicted");
        assert!(cache.get(&k3, vid(0)).is_some());
    }

    #[test]
    fn multiple_trees_per_fault_set_count_once_per_source() {
        let mut cache = TreeCache::new(2);
        let key = CacheKey::from_fault_set(&FaultSet::vertices([vid(1)]));
        cache.insert(key.clone(), vid(0), tree_for(0));
        cache.insert(key.clone(), vid(2), tree_for(2));
        cache.insert(key.clone(), vid(2), tree_for(2)); // overwrite, not growth
        assert_eq!(cache.trees_cached(), 2);
        assert_eq!(cache.fault_sets_cached(), 1);
    }

    #[test]
    fn eviction_accounts_all_trees_of_the_victim() {
        let mut cache = TreeCache::new(1);
        let k1 = CacheKey::from_fault_set(&FaultSet::vertices([vid(1)]));
        let k2 = CacheKey::from_fault_set(&FaultSet::vertices([vid(2)]));
        cache.insert(k1.clone(), vid(0), tree_for(0));
        cache.insert(k1.clone(), vid(3), tree_for(3));
        assert_eq!(cache.trees_cached(), 2);
        cache.insert(k2.clone(), vid(0), tree_for(0));
        assert_eq!(cache.fault_sets_cached(), 1);
        assert_eq!(cache.trees_cached(), 1);
        assert!(cache.get(&k1, vid(0)).is_none());
        assert!(cache.get(&k2, vid(0)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = TreeCache::new(0);
        let key = CacheKey::from_fault_set(&FaultSet::vertices([vid(1)]));
        cache.insert(key.clone(), vid(0), tree_for(0));
        assert!(cache.get(&key, vid(0)).is_none());
        assert_eq!(cache.trees_cached(), 0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut cache = TreeCache::new(4);
        let key = CacheKey::from_fault_set(&FaultSet::vertices([vid(1)]));
        cache.insert(key.clone(), vid(0), tree_for(0));
        cache.clear();
        assert_eq!(cache.fault_sets_cached(), 0);
        assert_eq!(cache.trees_cached(), 0);
        assert!(cache.get(&key, vid(0)).is_none());
    }
}
