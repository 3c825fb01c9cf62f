//! The [`FaultOracle`]: state, construction, and the single-query path.

use std::sync::{Arc, Mutex, MutexGuard};

use ftspan::{
    poly_greedy_spanner_with, EdgeCertificate, FaultSet, PolyGreedyOptions, SpannerParams,
    SpannerResult,
};
use ftspan_graph::dijkstra::{DijkstraScratch, ShortestPathTree};
use ftspan_graph::{Graph, VertexId};

use crate::cache::{CachedTree, KeyRef, TreeCache};
use crate::metrics::OracleMetrics;
use crate::query::{Answer, Query, QueryKind};

/// Configuration of a [`FaultOracle`].
#[derive(Clone, Debug)]
pub struct OracleOptions {
    /// Maximum number of fault sets whose shortest-path trees stay cached
    /// (LRU). `0` disables caching entirely — every query recomputes, which
    /// is the baseline the `oracle` bench compares against.
    ///
    /// Lookups scan a dense per-fault-set fingerprint array, so size this to
    /// the number of *concurrently hot* fault sets (hundreds to a few
    /// thousand), not the total ever observed — see
    /// [`TreeCache`](crate::TreeCache) for the cost model.
    pub cache_capacity: usize,
    /// Worker threads for [`FaultOracle::answer_batch`]. `0` means "use the
    /// machine's available parallelism".
    pub workers: usize,
    /// Record LBC certificates during construction and repair. Certificates
    /// let the churn loop seed localized repair from the spots where the
    /// spanner's redundancy was thinnest; disable to save memory.
    pub collect_certificates: bool,
    /// Namespace folded into every cache key fingerprint. Oracles serving a
    /// *remapped region* of a larger graph (shards) must use a region-unique
    /// namespace: their local element ids overlap, so unqualified keys of
    /// identical local fault patterns would collide across regions. `0` (the
    /// default) is the global namespace and keeps fingerprints unchanged.
    pub cache_namespace: u64,
}

impl Default for OracleOptions {
    fn default() -> Self {
        Self {
            cache_capacity: 128,
            workers: 0,
            collect_certificates: true,
            cache_namespace: 0,
        }
    }
}

/// The tree-cache path every serving structure shares — the
/// [`FaultOracle`] and each shard, pair and leaf region: an LRU of
/// shortest-path trees on `H ∖ F` under one cache namespace, plus the
/// counters it feeds.
///
/// Poison policy: a cache can always be dropped. A thread that panicked
/// while holding the lock may have left the LRU half-updated, so the next
/// locker clears it and lifts the poison; later queries rebuild their trees
/// and answer exactly as before.
#[derive(Debug)]
pub(crate) struct TreeStore {
    capacity: usize,
    namespace: u64,
    cache: Mutex<TreeCache>,
    metrics: OracleMetrics,
}

impl TreeStore {
    /// An empty store sized and namespaced by `options`.
    pub(crate) fn new(options: &OracleOptions) -> Self {
        Self {
            capacity: options.cache_capacity,
            namespace: options.cache_namespace,
            cache: Mutex::new(TreeCache::new(options.cache_capacity)),
            metrics: OracleMetrics::default(),
        }
    }

    /// Locks the cache, clearing it first if a panicking holder poisoned it.
    fn lock(&self) -> MutexGuard<'_, TreeCache> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            cache.clear();
            self.cache.clear_poison();
            cache
        })
    }

    /// Derives the borrowed (allocation-free) cache key for a fault set
    /// under this store's namespace.
    pub(crate) fn key_ref<'a>(&self, faults: &'a FaultSet) -> KeyRef<'a> {
        KeyRef::new(self.namespace, faults)
    }

    /// The counters every query and tree build is recorded on.
    pub(crate) fn metrics(&self) -> &OracleMetrics {
        &self.metrics
    }

    /// Fetches the cached tree rooted at `root` — or at `either`, when the
    /// caller can read its answer off a tree rooted at the other endpoint —
    /// else computes one rooted at `root` on `spanner ∖ F` and caches it.
    /// Returns the entry and whether it was a cache hit.
    ///
    /// `escape` is the vertex set whose nearest distance from the root is
    /// kept with the tree ([`CachedTree::escape`]); a caller passes the same
    /// set on every call, and `&[]` when it needs none. `edge_ids` names the
    /// graph the key's edge-fault ids refer to when it is not `spanner`; the
    /// miss path translates them by endpoints. The hit path allocates
    /// nothing beyond the `Arc` handle clone.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tree(
        &self,
        spanner: &Graph,
        edge_ids: Option<&Graph>,
        key: &KeyRef<'_>,
        root: VertexId,
        either: Option<VertexId>,
        escape: &[VertexId],
        scratch: &mut DijkstraScratch,
    ) -> (Arc<CachedTree>, bool) {
        if self.capacity > 0 {
            let mut cache = self.lock();
            let hit = match either {
                Some(other) => cache.get_either_ref(key, root, other),
                None => cache.get_ref(key, root),
            };
            if let Some(tree) = hit {
                return (tree, true);
            }
        }
        (
            self.compute(spanner, edge_ids, key, root, escape, scratch),
            false,
        )
    }

    /// The miss path of [`TreeStore::tree`]: translating edge faults and
    /// materializing the owned cache key may allocate.
    #[inline(never)]
    fn compute(
        &self,
        spanner: &Graph,
        edge_ids: Option<&Graph>,
        key: &KeyRef<'_>,
        root: VertexId,
        escape: &[VertexId],
        scratch: &mut DijkstraScratch,
    ) -> Arc<CachedTree> {
        // Compute outside the lock; concurrent workers may race on the same
        // tree, in which case the last insert simply wins.
        let tree = match edge_ids {
            Some(graph) => {
                let spanner_faults = key.faults().translate_edges(graph, spanner);
                scratch.shortest_path_tree(&spanner_faults.apply(spanner), root)
            }
            None => scratch.shortest_path_tree(&key.faults().apply(spanner), root),
        };
        let cached = Arc::new(CachedTree::new(tree, escape));
        self.metrics.record_tree_built();
        if self.capacity > 0 {
            self.lock()
                .insert(key.to_owned_key(), root, Arc::clone(&cached));
        }
        cached
    }

    /// Drops every cached tree.
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }

    /// Heap bytes held by the tree cache.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.lock().memory_bytes()
    }

    /// The raw cache lock, for tests that poison it.
    #[cfg(test)]
    pub(crate) fn cache_lock(&self) -> &Mutex<TreeCache> {
        &self.cache
    }
}

/// A query-serving engine over a fault-tolerant spanner.
///
/// The oracle owns one copy of the input graph — `G` minus the accumulated
/// damage — the spanner `H`, and the serving state (tree cache, metrics,
/// damage lists). Queries take `&self` and are safe to issue from many
/// threads; the churn loop ([`FaultOracle::apply_wave`](crate::churn)) takes
/// `&mut self` because it swaps the graphs.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct FaultOracle {
    pub(crate) graph: Graph,
    pub(crate) spanner: Graph,
    pub(crate) params: SpannerParams,
    pub(crate) options: OracleOptions,
    pub(crate) certificates: Vec<EdgeCertificate>,
    pub(crate) damage_vertices: Vec<VertexId>,
    pub(crate) damage_edges: Vec<(VertexId, VertexId)>,
    pub(crate) epoch: u64,
    pub(crate) trees: TreeStore,
    /// Pooled buffers for the churn loop, alive across waves so steady-state
    /// repair never re-pays graph-sized setup allocations (see
    /// [`crate::churn::WaveScratch`]).
    pub(crate) wave_scratch: crate::churn::WaveScratch,
}

std::thread_local! {
    /// Recycled Dijkstra buffers for entry points that have no caller-owned
    /// scratch (single queries). Thread-local, so concurrent `distance()`
    /// callers never serialize on a shared pool lock and the cached hit
    /// path stays allocation-free after the first query on a thread.
    static QUERY_SCRATCH: std::cell::RefCell<DijkstraScratch> =
        std::cell::RefCell::new(DijkstraScratch::new());
}

/// Runs `f` with this thread's recycled [`DijkstraScratch`]. No lock, no
/// allocation; the buffers persist for the thread's lifetime. Must not be
/// nested (the query paths and the calling-thread batch lane never do).
pub(crate) fn with_query_scratch<T>(f: impl FnOnce(&mut DijkstraScratch) -> T) -> T {
    QUERY_SCRATCH.with(|scratch| {
        f(&mut scratch
            .try_borrow_mut()
            .expect("query scratch must not be borrowed re-entrantly"))
    })
}

impl FaultOracle {
    /// Builds the spanner with the paper's polynomial-time modified greedy
    /// and wraps it in an oracle.
    #[must_use]
    pub fn build(graph: Graph, params: SpannerParams, options: OracleOptions) -> Self {
        let build_options = PolyGreedyOptions {
            collect_certificates: options.collect_certificates,
            ..PolyGreedyOptions::default()
        };
        let result = poly_greedy_spanner_with(&graph, params, &build_options);
        Self::from_result(graph, result, options)
    }

    /// Wraps an already-built spanner (from any construction in the
    /// workspace) in an oracle.
    ///
    /// # Panics
    ///
    /// Panics if the spanner is not over the same vertex set as the graph.
    #[must_use]
    pub fn from_result(graph: Graph, result: SpannerResult, options: OracleOptions) -> Self {
        assert_eq!(
            graph.vertex_count(),
            result.spanner.vertex_count(),
            "spanner must be over the graph's vertex set"
        );
        // Serving reads flat CSR slices; fold any construction-time append
        // buffers into the core once, up front.
        let mut graph = graph;
        graph.compact();
        let mut spanner = result.spanner;
        spanner.compact();
        Self {
            graph,
            spanner,
            params: result.params,
            trees: TreeStore::new(&options),
            options,
            certificates: result.certificates,
            damage_vertices: Vec::new(),
            damage_edges: Vec::new(),
            epoch: 0,
            wave_scratch: crate::churn::WaveScratch::default(),
        }
    }

    /// The current effective input graph (the input graph minus accumulated
    /// damage). Query edge-fault identifiers refer to this graph.
    #[inline]
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current spanner being served.
    #[inline]
    #[must_use]
    pub fn spanner(&self) -> &Graph {
        &self.spanner
    }

    /// The parameters the spanner targets.
    #[inline]
    #[must_use]
    pub fn params(&self) -> SpannerParams {
        self.params
    }

    /// The stretch bound `2k − 1` as a float, for stretch audits.
    #[inline]
    #[must_use]
    pub fn stretch_bound(&self) -> f64 {
        f64::from(self.params.stretch())
    }

    /// Serving metrics (lock-free; safe to read at any time).
    #[inline]
    #[must_use]
    pub fn metrics(&self) -> &OracleMetrics {
        self.trees.metrics()
    }

    /// The number of structural changes (fault waves / repairs) applied so
    /// far. Cached artifacts never survive an epoch change.
    #[inline]
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The LBC certificates currently held (construction plus repairs),
    /// relative to [`FaultOracle::graph`] / [`FaultOracle::spanner`].
    #[must_use]
    pub fn certificates(&self) -> &[EdgeCertificate] {
        &self.certificates
    }

    /// Heap bytes held by the serving working set: the effective graph, the
    /// spanner, and the tree cache. Certificates and damage lists are
    /// excluded — they scale with churn history, not with what a query
    /// touches.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + self.spanner.memory_bytes() + self.trees.memory_bytes()
    }

    /// Distance in `H ∖ F`, or `None` when the faults disconnect the pair
    /// (or fault an endpoint).
    ///
    /// On a cached-tree hit this path performs **no heap allocation**: the
    /// borrowed cache key is derived in place, the tree is read through an
    /// `Arc` handle, and no `Query`/`FaultSet` is cloned.
    #[must_use]
    pub fn distance(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<f64> {
        with_query_scratch(|scratch| {
            let key = self.key_ref(faults);
            self.answer_with_key(u, v, QueryKind::Distance, &key, scratch)
        })
        .distance
    }

    /// Distance plus an explicit shortest path in `H ∖ F`.
    #[must_use]
    pub fn path(
        &self,
        u: VertexId,
        v: VertexId,
        faults: &FaultSet,
    ) -> Option<(f64, Vec<VertexId>)> {
        let answer = with_query_scratch(|scratch| {
            let key = self.key_ref(faults);
            self.answer_with_key(u, v, QueryKind::Path, &key, scratch)
        });
        Some((answer.distance?, answer.path?))
    }

    /// Answers one query. For batches prefer
    /// [`FaultOracle::answer_batch`](crate::batch), which reuses scratch
    /// buffers and parallelizes across fault-set groups.
    #[must_use]
    pub fn answer(&self, query: &Query) -> Answer {
        with_query_scratch(|scratch| self.answer_with_scratch(query, scratch))
    }

    /// The shared single-query path: tree lookup / compute, then read.
    pub(crate) fn answer_with_scratch(
        &self,
        query: &Query,
        scratch: &mut DijkstraScratch,
    ) -> Answer {
        let key = self.key_ref(&query.faults);
        self.answer_with_key(query.u, query.v, query.kind, &key, scratch)
    }

    /// Derives the borrowed (allocation-free) cache key for a fault set
    /// under this oracle's namespace.
    pub(crate) fn key_ref<'a>(&self, faults: &'a FaultSet) -> KeyRef<'a> {
        self.trees.key_ref(faults)
    }

    /// The cache namespace this oracle keys its trees under.
    pub(crate) fn cache_namespace(&self) -> u64 {
        self.options.cache_namespace
    }

    /// Like [`FaultOracle::answer_with_scratch`] but with the cache key
    /// already derived — the batch path computes one fingerprint per
    /// fault-set group and reuses it per query.
    pub(crate) fn answer_with_key(
        &self,
        u: VertexId,
        v: VertexId,
        kind: QueryKind,
        key: &KeyRef<'_>,
        scratch: &mut DijkstraScratch,
    ) -> Answer {
        let (cached, cache_hit) = self.tree_for(key, u, v, scratch);
        self.answer_from_tree(u, v, kind, &cached.tree, cache_hit)
    }

    /// Reads one answer off an already-resolved tree rooted at `u` or `v`.
    /// The batch path holds the group's last tree and short-circuits the
    /// cache lookup entirely when consecutive queries share a root.
    pub(crate) fn answer_from_tree(
        &self,
        u: VertexId,
        v: VertexId,
        kind: QueryKind,
        tree: &ShortestPathTree,
        cache_hit: bool,
    ) -> Answer {
        self.metrics().record_query(cache_hit);
        let root = tree.source();
        let other = if root == u { v } else { u };

        let distance = tree.distance_to(other);
        let path = match (kind, distance) {
            (QueryKind::Path, Some(_)) => tree.path_to(other).map(|mut p| {
                // Orient the path u → v regardless of which endpoint the
                // cached tree happens to be rooted at.
                if root != u {
                    p.reverse();
                }
                p
            }),
            _ => None,
        };
        Answer {
            distance,
            path,
            cache_hit,
        }
    }

    /// Fetches a cached shortest-path tree rooted at either endpoint of the
    /// query, or computes (and caches) one rooted at `u`. The graph is
    /// undirected, so a tree rooted at either endpoint answers the pair;
    /// hot-source traffic hits on `u`, symmetric repeat traffic hits on `v`.
    /// Edge-fault ids name edges of [`FaultOracle::graph`].
    pub(crate) fn tree_for(
        &self,
        key: &KeyRef<'_>,
        u: VertexId,
        v: VertexId,
        scratch: &mut DijkstraScratch,
    ) -> (Arc<CachedTree>, bool) {
        self.trees.tree(
            &self.spanner,
            Some(&self.graph),
            key,
            u,
            Some(v),
            &[],
            scratch,
        )
    }

    /// Drops every cached tree and bumps the epoch; called by every
    /// structural mutation.
    pub(crate) fn invalidate_serving_state(&mut self) {
        self.epoch += 1;
        self.trees.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::dijkstra::weighted_distance;
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_oracle(seed: u64, f: u32) -> FaultOracle {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::connected_gnp(24, 0.3, &mut rng);
        FaultOracle::build(graph, SpannerParams::vertex(2, f), OracleOptions::default())
    }

    #[test]
    fn distances_match_dijkstra_on_the_spanner() {
        let oracle = small_oracle(1, 1);
        let spanner = oracle.spanner().clone();
        for (u, v) in [(0, 5), (3, 9), (11, 2)] {
            let faults = FaultSet::vertices([vid(7)]);
            let expected = {
                let view = faults.apply(&spanner);
                weighted_distance(&view, vid(u), vid(v))
            };
            assert_eq!(oracle.distance(vid(u), vid(v), &faults), expected);
        }
    }

    #[test]
    fn paths_are_valid_spanner_walks_with_matching_length() {
        let oracle = small_oracle(2, 1);
        let faults = FaultSet::vertices([vid(4)]);
        let (d, path) = oracle.path(vid(0), vid(13), &faults).expect("connected");
        assert_eq!(path.first(), Some(&vid(0)));
        assert_eq!(path.last(), Some(&vid(13)));
        let mut walked = 0.0;
        for pair in path.windows(2) {
            let e = oracle
                .spanner()
                .edge_between(pair[0], pair[1])
                .expect("path must use spanner edges");
            walked += oracle.spanner().weight(e);
            assert!(!faults.contains_vertex(pair[0]));
        }
        assert!((walked - d).abs() < 1e-9);
    }

    #[test]
    fn path_orientation_follows_the_query() {
        let oracle = small_oracle(3, 1);
        let faults = FaultSet::empty(ftspan::FaultModel::Vertex);
        let (_, forward) = oracle.path(vid(2), vid(17), &faults).unwrap();
        let (_, backward) = oracle.path(vid(17), vid(2), &faults).unwrap();
        assert_eq!(forward.first(), Some(&vid(2)));
        assert_eq!(backward.first(), Some(&vid(17)));
        let mut reversed = backward.clone();
        reversed.reverse();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn faulted_endpoint_yields_none() {
        let oracle = small_oracle(4, 1);
        let faults = FaultSet::vertices([vid(5)]);
        assert_eq!(oracle.distance(vid(5), vid(1), &faults), None);
        assert_eq!(oracle.distance(vid(1), vid(5), &faults), None);
        assert!(oracle.path(vid(5), vid(1), &faults).is_none());
    }

    #[test]
    fn repeated_fault_sets_hit_the_cache() {
        let oracle = small_oracle(5, 1);
        let faults = FaultSet::vertices([vid(3)]);
        let first = oracle.answer(&Query::distance(vid(0), vid(8), faults.clone()));
        assert!(!first.cache_hit);
        let second = oracle.answer(&Query::distance(vid(0), vid(9), faults.clone()));
        assert!(second.cache_hit, "same fault set and root must hit");
        // Symmetric query shares the min-endpoint-rooted tree.
        let third = oracle.answer(&Query::distance(vid(8), vid(0), faults));
        assert!(third.cache_hit);
        let snap = oracle.metrics().snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.trees_built, 1);
    }

    #[test]
    fn cache_capacity_zero_never_hits() {
        let mut rng = StdRng::seed_from_u64(6);
        let graph = generators::connected_gnp(16, 0.3, &mut rng);
        let options = OracleOptions {
            cache_capacity: 0,
            ..OracleOptions::default()
        };
        let oracle = FaultOracle::build(graph, SpannerParams::vertex(2, 1), options);
        let faults = FaultSet::vertices([vid(2)]);
        for _ in 0..3 {
            let a = oracle.answer(&Query::distance(vid(0), vid(5), faults.clone()));
            assert!(!a.cache_hit);
        }
        assert_eq!(oracle.metrics().snapshot().trees_built, 3);
    }

    #[test]
    fn edge_fault_queries_translate_to_the_spanner() {
        let mut rng = StdRng::seed_from_u64(7);
        let graph = generators::connected_gnp(18, 0.35, &mut rng);
        let params = SpannerParams::edge(2, 1);
        let oracle = FaultOracle::build(graph, params, OracleOptions::default());
        // Fault a spanner edge by its *input graph* id and check the oracle
        // routes around it exactly like Dijkstra on H minus that edge.
        let (graph_id, _) = oracle
            .graph()
            .edges()
            .find(|(_, e)| {
                oracle
                    .spanner()
                    .edge_between(e.source(), e.target())
                    .is_some()
            })
            .expect("spanner edges exist");
        let (u, v) = oracle.graph().edge(graph_id).endpoints();
        let faults = FaultSet::edges([graph_id]);
        let expected = {
            let spanner = oracle.spanner();
            let translated = faults.translate_edges(oracle.graph(), spanner);
            let view = translated.apply(spanner);
            weighted_distance(&view, u, v)
        };
        assert_eq!(oracle.distance(u, v, &faults), expected);
        // The direct edge is faulted, so any finite answer is a detour.
        if let Some(d) = expected {
            assert!(d >= 2.0 - 1e-9);
        }
    }

    #[test]
    fn stale_out_of_range_edge_fault_ids_do_not_panic() {
        // Clients may resend fault sets built against an older epoch whose
        // edge ids no longer exist; the oracle must serve, not crash.
        let mut rng = StdRng::seed_from_u64(10);
        let graph = generators::connected_gnp(16, 0.35, &mut rng);
        let oracle = FaultOracle::build(graph, SpannerParams::edge(2, 1), OracleOptions::default());
        let stale = FaultSet::edges([ftspan_graph::eid(99_999)]);
        let expected = oracle.distance(vid(0), vid(1), &FaultSet::edges([]));
        assert_eq!(oracle.distance(vid(0), vid(1), &stale), expected);
    }

    #[test]
    fn from_result_accepts_prebuilt_spanners() {
        let mut rng = StdRng::seed_from_u64(8);
        let graph = generators::connected_gnp(14, 0.4, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let result = ftspan::poly_greedy_spanner(&graph, params);
        let edges = result.spanner.edge_count();
        let oracle = FaultOracle::from_result(graph, result, OracleOptions::default());
        assert_eq!(oracle.spanner().edge_count(), edges);
        assert_eq!(oracle.params(), params);
        assert_eq!(oracle.epoch(), 0);
    }

    #[test]
    fn memory_accounting_counts_one_graph_copy() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut graph = generators::connected_gnp(30, 0.3, &mut rng);
        graph.compact();
        let oracle =
            FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default());
        let empty_cache = TreeCache::new(oracle.options.cache_capacity).memory_bytes();
        assert_eq!(
            oracle.memory_bytes(),
            oracle.graph().memory_bytes() + oracle.spanner().memory_bytes() + empty_cache
        );
    }

    #[test]
    #[should_panic(expected = "vertex set")]
    fn mismatched_spanner_is_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let graph = generators::connected_gnp(12, 0.4, &mut rng);
        let other = generators::path(13);
        let result = ftspan::poly_greedy_spanner(&other, SpannerParams::vertex(2, 1));
        let _ = FaultOracle::from_result(graph, result, OracleOptions::default());
    }
}
