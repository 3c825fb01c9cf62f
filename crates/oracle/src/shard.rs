//! Sharded serving: partition the vertex set, serve every query from a
//! per-shard region when locality can be *proved*, and fall back to the
//! global oracle otherwise.
//!
//! The [`ShardedOracle`] is the scaling layer over [`FaultOracle`]: a
//! [`ShardPlan`] assigns each vertex to a shard by packing seeded
//! exponential-shift clusters ([`ftspan_graph::cluster`], computed
//! sequentially — serving never runs the network simulator); every shard
//! serves a **region** — its core vertices plus a halo of radius `2k − 1` —
//! from the spanner induced on it alone (no copy of the input graph), with
//! its own tree cache, shard-local dense ids and a shard-unique cache
//! namespace.
//! Edge faults, which name input-graph edges, are resolved by endpoints
//! straight to the region's spanner edges. Cross-shard queries are served
//! from lazily-built **pair regions** (the union of two shards' regions,
//! which contains the [`BoundaryIndex`]'s cut edges between them), stitching
//! the two shards' shortest-path trees through the portal vertices.
//!
//! ## Exactness
//!
//! Sharded answers are *identical* to the single global oracle's, not
//! approximations. A region answer is returned only when an **escape
//! certificate** holds: writing `front(x)` for the distance from `x` to the
//! region's frontier (vertices with spanner edges leaving the region) inside
//! the faulted region, any `u`–`v` walk that leaves the region must pay at
//! least `front(u) + front(v)` — it walks from `u` to a frontier vertex
//! entirely inside the region before first leaving, and from a frontier
//! vertex to `v` entirely inside after last re-entering. So whenever the
//! local distance satisfies `d(u, v) ≤ front(u) + front(v)` (or an endpoint
//! cannot reach the frontier at all), the local answer is the global
//! shortest distance, bit for bit. Only queries whose shortest path provably
//! might wander outside the region — for example when a fault wave severs
//! all portals between two shards — reach the global fallback, and the
//! [`ShardedMetrics`] record how often that happens.
//!
//! `front(x)` depends only on the region, the localized fault set and `x`,
//! which is exactly what a region tree is cached under, so it is computed
//! once per built tree and cached beside it ([`CachedTree::escape`]). And
//! because `front(v) ≥ 0`, `d(u, v) ≤ front(u)` already certifies: `v`'s
//! tree is fetched only when that fails.
//!
//! [`CachedTree::escape`]: crate::CachedTree::escape
//!
//! ## Boundary grouping
//!
//! With [`ShardedOptions::super_shards`] set, the shards are packed into
//! super-shards and the boundary index covers only the cut edges between
//! super-shards (see [`crate::hierarchy`]). Routing, regions and the escape
//! certificate are unchanged, so a grouped oracle answers exactly like a
//! flat one; the boundary's memory and the severed pairs a wave reports
//! follow the coarse partition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ftspan::{poly_greedy_spanner_with, FaultSet, PolyGreedyOptions, SpannerParams, SpannerResult};
use ftspan_graph::cluster::{exponential_shifts, shifted_centers};
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::{Graph, IdRemap, VertexId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::boundary::BoundaryIndex;
use crate::hierarchy::ShardGrouping;
use crate::metrics::MetricsSnapshot;
use crate::oracle::{with_query_scratch, FaultOracle, OracleOptions, TreeStore};
use crate::query::{Answer, Query, QueryKind};

/// How a [`ShardPlan`] is derived from exponential-shift clusterings.
#[derive(Clone, Debug)]
pub struct ShardPlanOptions {
    /// Desired number of shards (the plan never produces more; tiny graphs
    /// may fill fewer).
    pub shards: usize,
    /// Seed of the exponential shifts. The plan is a pure function of the
    /// graph and these options, so a fixed seed makes shard assignment
    /// reproducible across runs and machines.
    pub seed: u64,
    /// Rate of the exponential shifts (cluster radius is `O(log n / beta)`).
    /// Must be finite and positive.
    pub beta: f64,
    /// Candidate partitions to draw; the most balanced one is kept.
    pub partitions: usize,
}

impl Default for ShardPlanOptions {
    fn default() -> Self {
        Self {
            shards: 4,
            seed: 0x0005_4A2D_2020,
            beta: 0.25,
            partitions: 4,
        }
    }
}

/// A deterministic assignment of every vertex to exactly one shard.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPlan {
    shard_of: Vec<u32>,
    cores: Vec<Vec<VertexId>>,
}

impl ShardPlan {
    /// Derives a plan from exponential-shift clusterings: draw
    /// `options.partitions` shift vectors with the seeded RNG, cluster each
    /// with [`shifted_centers`], keep the first clustering whose largest
    /// cluster is smallest, and pack whole clusters into `options.shards`
    /// shards of roughly equal size. Deterministic given the graph and
    /// options.
    ///
    /// The clusterings are exactly the partitions `ftspan-distributed`'s
    /// `padded_decomposition` floods out of the same seed; the plan computes
    /// them sequentially in `O(n log n + m)` each and never runs the network
    /// simulator.
    ///
    /// On low-diameter graphs the exponential-shift clustering can produce a
    /// single giant cluster, which would collapse every request onto one
    /// shard. The plan therefore *refines* the packing: while a requested
    /// shard is empty, the heaviest shard is split along its BFS layering
    /// (the ball around its lowest vertex stays, the far half moves), so the
    /// plan always fills `min(shards, n)` shards while keeping the split
    /// halves as coherent as the graph allows.
    ///
    /// # Panics
    ///
    /// Panics unless `options.beta` is finite and positive: a NaN, negative
    /// or infinite rate degenerates into singleton clusters, and a zero rate
    /// into infinite shifts.
    #[must_use]
    pub fn build(graph: &Graph, options: &ShardPlanOptions) -> Self {
        assert!(
            options.beta.is_finite() && options.beta > 0.0,
            "shard plan beta must be finite and positive, got {}",
            options.beta
        );
        if graph.vertex_count() == 0 {
            return Self::from_shard_of(Vec::new());
        }
        let shards = options.shards.max(1);
        let assignment = pack_clusters(&balanced_clustering(graph, options), shards);

        let mut cores: Vec<Vec<VertexId>> = vec![Vec::new(); shards];
        for (i, &s) in assignment.iter().enumerate() {
            cores[s as usize].push(VertexId::new(i));
        }
        while let Some(empty) = cores.iter().position(Vec::is_empty) {
            let Some(heaviest) = cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.len() >= 2)
                .max_by(|(i, a), (j, b)| a.len().cmp(&b.len()).then(j.cmp(i)))
                .map(|(i, _)| i)
            else {
                break; // fewer vertices than shards: trailing shards stay empty
            };
            let (keep, moved) = split_by_bfs_layers(graph, &cores[heaviest]);
            cores[heaviest] = keep;
            cores[empty] = moved;
        }
        cores.retain(|c| !c.is_empty());

        let mut shard_of = vec![0u32; graph.vertex_count()];
        for (s, core) in cores.iter().enumerate() {
            for &v in core {
                shard_of[v.index()] = s as u32;
            }
        }
        Self::from_shard_of(shard_of)
    }

    /// Wraps an explicit vertex→shard assignment (entry `i` is the shard of
    /// vertex `i`). Useful for tests and for callers with domain knowledge
    /// of the graph's natural partition.
    #[must_use]
    pub fn from_shard_of(shard_of: Vec<u32>) -> Self {
        let shards = shard_of
            .iter()
            .map(|&s| s as usize + 1)
            .max()
            .unwrap_or(1)
            .max(1);
        let mut cores = vec![Vec::new(); shards];
        for (i, &s) in shard_of.iter().enumerate() {
            cores[s as usize].push(VertexId::new(i));
        }
        Self { shard_of, cores }
    }

    /// Number of shards.
    #[inline]
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of vertices the plan covers.
    #[inline]
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard a vertex belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, v: VertexId) -> u32 {
        self.shard_of[v.index()]
    }

    /// The core vertices of one shard, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn core(&self, shard: usize) -> &[VertexId] {
        &self.cores[shard]
    }
}

/// Configuration of a [`ShardedOracle`].
#[derive(Clone, Debug, Default)]
pub struct ShardedOptions {
    /// How the shard plan is derived (ignored by
    /// [`ShardedOracle::build_with_plan`]).
    pub plan: ShardPlanOptions,
    /// Hop radius of every shard's halo, measured in the spanner. `None`
    /// uses the stretch `2k − 1` — the distance within which a spanner
    /// witness path for a core edge can wander.
    pub halo_radius: Option<u32>,
    /// Options of the global oracle and (with per-shard cache namespaces)
    /// of every region's tree cache.
    pub oracle: OracleOptions,
    /// Groups the shards into super-shards for the boundary index only.
    /// `None` indexes the cut edges between shards. `Some(count)` packs the
    /// shards into `count` super-shards by core size (`0` picks
    /// `ceil(sqrt(shard count))`) and indexes only the cut edges between
    /// super-shards (see [`crate::hierarchy`]). Routing, regions and answers
    /// do not depend on it.
    pub super_shards: Option<usize>,
}

/// One served region: a shard's core plus halo (or the union of two shards'
/// regions for cross-shard stitching), remapped to dense local ids.
///
/// A region answer is a distance in `H ∖ F` plus the escape certificate, and
/// both read the spanner alone, so a region holds the **induced spanner
/// only** — no copy of the input graph.
#[derive(Debug)]
pub(crate) struct Region {
    /// The spanner induced on the members, in local ids.
    pub(crate) spanner: Graph,
    /// The region's tree cache and counters, under its cache namespace.
    pub(crate) trees: TreeStore,
    pub(crate) remap: IdRemap,
    /// Local ids of the vertices with global spanner edges leaving the
    /// region — the only places a path can escape through.
    pub(crate) frontier: Vec<VertexId>,
    /// Signature of the region's members and induced edges, used by the
    /// churn fan-out to decide whether a wave touched this region.
    pub(crate) signature: u64,
}

impl Region {
    /// Extracts the region on `members` (sorted global ids) from the global
    /// spanner. The global effective graph is read only for the signature.
    pub(crate) fn build(
        graph: &Graph,
        spanner: &Graph,
        base_options: &OracleOptions,
        namespace: u64,
        members: &[VertexId],
    ) -> Self {
        let signature = region_signature(graph, spanner, members);
        let remap = IdRemap::from_members(spanner.vertex_count(), members);
        let local_count = remap.local_count();
        let mut local_spanner = Graph::with_capacity(local_count, local_count);
        // Only member adjacencies are scanned (not the whole spanner edge
        // table), so region extraction stays proportional to the region.
        for &u in remap.members() {
            for (v, e) in spanner.neighbors(u) {
                if u < v {
                    if let (Some(lu), Some(lv)) = (remap.to_local(u), remap.to_local(v)) {
                        local_spanner.add_edge(lu.index(), lv.index(), spanner.weight(e));
                    }
                }
            }
        }
        local_spanner.compact();
        let frontier: Vec<VertexId> = remap
            .members()
            .iter()
            .filter(|&&g| spanner.neighbors(g).any(|(nbr, _)| !remap.contains(nbr)))
            .map(|&g| remap.to_local(g).expect("member maps locally"))
            .collect();
        let trees = TreeStore::new(&OracleOptions {
            cache_namespace: namespace,
            ..base_options.clone()
        });
        Self {
            spanner: local_spanner,
            trees,
            remap,
            frontier,
            signature,
        }
    }

    /// Heap bytes held by the region: its local spanner, its tree cache,
    /// the paged id remap, and the frontier list.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.spanner.memory_bytes()
            + self.trees.memory_bytes()
            + self.remap.memory_bytes()
            + self.frontier.capacity() * std::mem::size_of::<VertexId>()
    }

    /// Restricts a global fault set to the region's local spanner. Faults
    /// outside the region cannot touch any path inside it and are dropped.
    /// An edge fault id names an edge of the global input graph: it is
    /// resolved by its endpoints straight to the region's spanner edge, and
    /// dropped when the spanner has no such edge — a fault on an edge outside
    /// `H` cannot change `H ∖ F`.
    fn localize_faults(&self, faults: &FaultSet, global_graph: &Graph) -> FaultSet {
        match faults {
            FaultSet::Vertices(vs) => {
                FaultSet::vertices(self.remap.localize_vertices(vs.iter().copied()))
            }
            FaultSet::Edges(es) => FaultSet::edges(es.iter().filter_map(|&e| {
                let (u, v) = global_graph.get_edge(e)?.endpoints();
                let lu = self.remap.to_local(u)?;
                let lv = self.remap.to_local(v)?;
                self.spanner.edge_between(lu, lv)
            })),
        }
    }

    /// Attempts to answer the query (global ids) from this region alone.
    /// Returns `Some` only when the escape certificate proves the local
    /// answer equals the global one; `None` sends the caller to the global
    /// fallback.
    ///
    /// Each endpoint's `front` — its distance to the frontier in the
    /// faulted region — is cached with its tree, so a certified hit reads
    /// one cached entry and scans nothing. `v`'s tree is fetched only when
    /// `u`'s side alone cannot certify the answer.
    pub(crate) fn try_answer(
        &self,
        u: VertexId,
        v: VertexId,
        kind: QueryKind,
        global_faults: &FaultSet,
        global_graph: &Graph,
        scratch: &mut DijkstraScratch,
    ) -> Option<Answer> {
        let lu = self.remap.to_local(u)?;
        let lv = self.remap.to_local(v)?;
        let faults = self.localize_faults(global_faults, global_graph);
        let key = self.trees.key_ref(&faults);
        // Each lookup wants exactly its own root, because `front` is read
        // off the root's entry, and the localized faults already name
        // region spanner edges.
        let fetch = |root, scratch: &mut DijkstraScratch| {
            self.trees.tree(
                &self.spanner,
                None,
                &key,
                root,
                None,
                &self.frontier,
                scratch,
            )
        };
        let (cached_u, cache_hit) = fetch(lu, scratch);
        let tree_u = &cached_u.tree;
        let distance = tree_u.distance_to(lv);

        let exact = match (distance, cached_u.escape) {
            // `u` cannot reach the frontier under these faults: no u–v path
            // leaves the region, so the local answer is the global answer.
            (_, None) => true,
            // Any escaping walk costs at least front(u) + front(v) ≥
            // front(u), so `v`'s side is not needed.
            (Some(d), Some(front_u)) if d <= front_u => true,
            (_, Some(front_u)) => match (distance, fetch(lv, scratch).0.escape) {
                // Same escape-proofness, from the `v` side.
                (_, None) => true,
                // A local distance at or below the escape floor is optimal.
                (Some(d), Some(front_v)) => d <= front_u + front_v,
                // Locally disconnected but both endpoints can escape:
                // the pair may be connected through other regions.
                (None, Some(_)) => false,
            },
        };
        if !exact {
            return None;
        }

        let path = match (kind, distance) {
            (QueryKind::Path, Some(_)) => tree_u.path_to(lv).map(|p| self.remap.globalize_path(&p)),
            _ => None,
        };
        // Record on the region's own metrics so the sharded backend's
        // aggregated cache statistics (`ShardedOracle::cache_stats`) see
        // every served query exactly once — certificate failures are
        // recorded by the global fallback instead.
        self.trees.metrics().record_query(cache_hit);
        Some(Answer {
            distance,
            path,
            cache_hit,
        })
    }
}

/// The lazily-filled cache of stitched pair regions, keyed by the
/// normalized `(a, b)` shard (or leaf) pair.
///
/// Poison policy: the map only ever holds finished `Arc<Region>`s — regions
/// are built outside the lock — so a thread that panicked while holding it
/// cannot have left an entry half-written. A poisoned lock is recovered
/// rather than turned into a panic on every later query.
#[derive(Debug, Default)]
pub(crate) struct PairRegions(Mutex<HashMap<(u32, u32), Arc<Region>>>);

impl PairRegions {
    /// Locks the map, recovering it if a panicking holder poisoned it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, HashMap<(u32, u32), Arc<Region>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetches the pair region for `(a, b)`, or stitches it from `regions`
    /// on a miss. Building happens outside the lock; a concurrent builder of
    /// the same pair just loses the insert race and its region is dropped.
    ///
    /// Halo dedup: when one of the two regions already covers the union (its
    /// halo swallowed the other's core and halo), the pair *is* that region
    /// and is shared instead of extracted again.
    pub(crate) fn get_or_stitch(
        &self,
        regions: &[Arc<Region>],
        a: u32,
        b: u32,
        build: impl FnOnce(&[VertexId]) -> Region,
    ) -> Arc<Region> {
        if let Some(region) = self.lock().get(&(a, b)) {
            return Arc::clone(region);
        }
        let (ra, rb) = (&regions[a as usize], &regions[b as usize]);
        let mut members: Vec<VertexId> = ra
            .remap
            .members()
            .iter()
            .chain(rb.remap.members())
            .copied()
            .collect();
        members.sort_unstable();
        members.dedup();
        let region = [ra, rb]
            .into_iter()
            .find(|r| r.remap.members() == members.as_slice())
            .map_or_else(|| Arc::new(build(&members)), Arc::clone);
        Arc::clone(self.lock().entry((a, b)).or_insert(region))
    }

    /// Calls `f` once per distinct region allocation among `regions` and the
    /// live pair regions — an interned region sits behind several shards or
    /// pairs but is counted once.
    pub(crate) fn for_each_distinct(&self, regions: &[Arc<Region>], mut f: impl FnMut(&Region)) {
        let pairs = self.lock();
        let mut seen: Vec<*const Region> = Vec::new();
        for region in regions.iter().chain(pairs.values()) {
            let ptr = Arc::as_ptr(region);
            if !seen.contains(&ptr) {
                seen.push(ptr);
                f(region);
            }
        }
    }
}

/// One region per shard of `plan`: the shard's core plus every vertex within
/// `halo_radius` hops in the global spanner, namespaced by `namespace(s)`.
///
/// Sibling dedup: a shard whose member set equals an earlier shard's shares
/// that extraction. The shared region keeps the first shard's cache
/// namespace, which is sound — identical regions answer identically, so
/// sharing their tree cache is a win, not a collision.
///
/// Each region is a pure function of the global state and the plan, so on a
/// multicore host the distinct regions are extracted on one scoped thread
/// each; joining in shard order keeps the result identical to a serial build.
pub(crate) fn build_regions(
    global: &FaultOracle,
    plan: &ShardPlan,
    halo_radius: u32,
    options: &OracleOptions,
    namespace: fn(usize) -> u64,
) -> Vec<Arc<Region>> {
    let members: Vec<Vec<VertexId>> = (0..plan.shard_count())
        .map(|s| global.spanner().halo_members(plan.core(s), halo_radius))
        .collect();
    // `owner[s]` is the first shard with shard `s`'s member set.
    let owner: Vec<usize> = (0..members.len())
        .map(|s| (0..s).find(|&t| members[t] == members[s]).unwrap_or(s))
        .collect();
    let distinct: Vec<usize> = (0..members.len()).filter(|&s| owner[s] == s).collect();
    let build = |s: usize| {
        Region::build(
            global.graph(),
            global.spanner(),
            options,
            namespace(s),
            &members[s],
        )
    };
    let build = &build;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let built: Vec<Region> = if cores > 1 && distinct.len() > 1 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .iter()
                .map(|&s| scope.spawn(move || build(s)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("region build must not panic"))
                .collect()
        })
    } else {
        distinct.iter().map(|&s| build(s)).collect()
    };
    let mut built = built.into_iter();
    let mut regions: Vec<Arc<Region>> = Vec::with_capacity(members.len());
    for s in 0..members.len() {
        let region = if owner[s] == s {
            Arc::new(built.next().expect("one build per distinct member set"))
        } else {
            Arc::clone(&regions[owner[s]])
        };
        regions.push(region);
    }
    regions
}

/// The cluster center of every vertex in the most balanced of
/// `options.partitions` exponential-shift clusterings drawn from
/// `options.seed`: the first whose largest cluster is smallest.
fn balanced_clustering(graph: &Graph, options: &ShardPlanOptions) -> Vec<VertexId> {
    let n = graph.vertex_count();
    let mut rng = StdRng::seed_from_u64(options.seed);
    (0..options.partitions.max(1))
        .map(|_| shifted_centers(graph, &exponential_shifts(n, options.beta, &mut rng)))
        .min_by_key(|centers| cluster_sizes(centers).into_iter().max().unwrap_or(0))
        .expect("at least one partition is drawn")
}

/// Vertex count of every cluster, indexed by center id (0 for non-centers).
fn cluster_sizes(center_of: &[VertexId]) -> Vec<usize> {
    let mut sizes = vec![0usize; center_of.len()];
    for c in center_of {
        sizes[c.index()] += 1;
    }
    sizes
}

/// Packs a clustering into `shards` groups of roughly equal vertex count,
/// returning the shard of every vertex.
///
/// Clusters are taken largest first (ties by center id), and each goes to
/// the currently lightest shard (ties by shard index). Whole clusters are
/// never split, so every intra-cluster edge stays internal to a shard, and
/// the same clustering always yields the same assignment.
fn pack_clusters(center_of: &[VertexId], shards: usize) -> Vec<u32> {
    let sizes = cluster_sizes(center_of);
    let mut centers: Vec<usize> = (0..sizes.len()).filter(|&c| sizes[c] > 0).collect();
    centers.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
    let mut load = vec![0usize; shards];
    let mut shard_of_center = vec![0u32; sizes.len()];
    for c in centers {
        let lightest = (0..shards)
            .min_by_key(|&i| (load[i], i))
            .expect("at least one shard");
        load[lightest] += sizes[c];
        shard_of_center[c] = lightest as u32;
    }
    center_of
        .iter()
        .map(|c| shard_of_center[c.index()])
        .collect()
}

/// Splits a shard's members into two halves along the BFS layering of its
/// induced subgraph: the ball around the lowest member stays, the farthest
/// half (unreachable members first) moves out. Deterministic, and as locality
/// preserving as the induced topology allows.
fn split_by_bfs_layers(graph: &Graph, members: &[VertexId]) -> (Vec<VertexId>, Vec<VertexId>) {
    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    let (sub, remap) = graph.induced_subgraph_remap(&sorted);
    let dist = ftspan_graph::bfs::bfs_hop_distances(&sub, VertexId::new(0));
    let mut order: Vec<(u32, VertexId)> = sorted
        .iter()
        .map(|&g| {
            let local = remap.to_local(g).expect("member maps locally");
            (dist[local.index()].unwrap_or(u32::MAX), g)
        })
        .collect();
    order.sort_unstable();
    let keep_len = order.len().div_ceil(2);
    let mut keep: Vec<VertexId> = order[..keep_len].iter().map(|&(_, g)| g).collect();
    let mut moved: Vec<VertexId> = order[keep_len..].iter().map(|&(_, g)| g).collect();
    keep.sort_unstable();
    moved.sort_unstable();
    (keep, moved)
}

/// Order- and id-sensitive signature of a region: its member list, every
/// induced base and spanner edge (endpoints and weight), **and every edge
/// leaving the region**. Two extractions of the same region from the same
/// global state always agree, and any wave or repair that adds or removes a
/// member, an induced edge, or a leaving edge changes the signature — the
/// test the churn fan-out uses to skip untouched shards.
///
/// Leaving edges must be covered because the escape certificate reads the
/// region's *frontier* off them: a repair that adds a spanner edge from a
/// halo-rim member to the outside changes no member and no induced edge,
/// but turns that member into a frontier vertex. Skipping the rebuild would
/// leave the frontier stale and the certificate unsound.
///
/// The input graph's induced edges are hashed even though a region now
/// serves from the spanner alone: the signature decides which lanes a wave
/// rebuilds, and the rebuilt lanes feed every `WaveReport::digest` and
/// therefore every journal entry. Hashing `H` alone would rebuild fewer
/// lanes on some waves and change those digests.
pub(crate) fn region_signature(graph: &Graph, spanner: &Graph, members: &[VertexId]) -> u64 {
    let mut inside = vec![false; graph.vertex_count()];
    for &v in members {
        inside[v.index()] = true;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |value: u64| {
        h ^= value;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for &v in members {
        mix(u64::from(v.as_u32()));
    }
    for (tag, g) in [(0x6261u64, graph), (0x7370u64, spanner)] {
        mix(tag);
        for &v in members {
            for (nbr, e) in g.neighbors(v) {
                if inside[nbr.index()] {
                    if nbr > v {
                        mix(u64::from(v.as_u32()) << 32 | u64::from(nbr.as_u32()));
                        mix(g.weight(e).to_bits());
                    }
                } else {
                    // A leaving edge: hash under a distinct tag so it can
                    // never cancel against an internal edge.
                    mix(0x6F75_7400 ^ (u64::from(v.as_u32()) << 32 | u64::from(nbr.as_u32())));
                }
            }
        }
    }
    h
}

/// Lock-free counters describing how sharded traffic was served.
#[derive(Debug, Default)]
pub struct ShardedMetrics {
    queries: AtomicU64,
    local: AtomicU64,
    stitched: AtomicU64,
    global_fallbacks: AtomicU64,
    batches: AtomicU64,
    waves: AtomicU64,
}

impl ShardedMetrics {
    pub(crate) fn record_local(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.local.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_stitched(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.stitched.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_global_fallback(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.global_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_wave(&self) {
        self.waves.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> ShardedMetricsSnapshot {
        ShardedMetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            local: self.local.load(Ordering::Relaxed),
            stitched: self.stitched.load(Ordering::Relaxed),
            global_fallbacks: self.global_fallbacks.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            waves: self.waves.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of [`ShardedMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedMetricsSnapshot {
    /// Total queries served.
    pub queries: u64,
    /// Queries answered from a single shard's region.
    pub local: u64,
    /// Cross-shard queries answered from a stitched pair region.
    pub stitched: u64,
    /// Queries that fell back to the global oracle.
    pub global_fallbacks: u64,
    /// Batch calls served.
    pub batches: u64,
    /// Fault waves applied.
    pub waves: u64,
}

impl ShardedMetricsSnapshot {
    /// Fraction of queries served without touching the global oracle.
    #[must_use]
    pub fn locality_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            (self.local + self.stitched) as f64 / self.queries as f64
        }
    }
}

/// A sharded, API-compatible drop-in for [`FaultOracle`]: same query
/// vocabulary, identical answers, with traffic served from per-shard state.
///
/// See the [module docs](crate::shard) for the architecture and the
/// exactness argument.
#[derive(Debug)]
pub struct ShardedOracle {
    pub(crate) global: FaultOracle,
    pub(crate) plan: ShardPlan,
    /// The super-shards the boundary index covers, when
    /// [`ShardedOptions::super_shards`] asks for a grouping.
    pub(crate) grouping: Option<ShardGrouping>,
    /// Cut edges between shards, or between super-shards when grouped.
    pub(crate) boundary: BoundaryIndex,
    /// One region per shard, behind `Arc` so sibling shards whose core-plus-
    /// halo member sets coincide (common when a small graph's halos cover
    /// everything) share one extraction instead of duplicating it — the halo
    /// dedup half of the scale tier's memory story.
    pub(crate) regions: Vec<Arc<Region>>,
    pub(crate) pair_regions: PairRegions,
    pub(crate) shard_epochs: Vec<u64>,
    pub(crate) halo_radius: u32,
    pub(crate) options: ShardedOptions,
    pub(crate) metrics: ShardedMetrics,
    /// Cache statistics `(hits, trees built)` of regions that have been
    /// retired — replaced by a churn rebuild or dropped with the pair
    /// cache — folded in so [`ShardedOracle::cache_stats`] spans the
    /// oracle's whole lifetime, not just the current regions.
    pub(crate) retired_cache_stats: (u64, u64),
    /// Pooled BFS buffers for the per-shard region sweep of the churn
    /// fan-out, alive across waves.
    pub(crate) wave_bfs: ftspan_graph::bfs::BfsScratch,
}

impl ShardedOracle {
    /// Builds the global spanner with the paper's polynomial-time modified
    /// greedy, derives a shard plan from exponential-shift clusters, and wires
    /// up the sharded serving state.
    #[must_use]
    pub fn build(graph: Graph, params: SpannerParams, options: impl Into<ShardedOptions>) -> Self {
        let options = options.into();
        let plan = ShardPlan::build(&graph, &options.plan);
        Self::build_with_plan(graph, params, plan, options)
    }

    /// Like [`ShardedOracle::build`] but with an explicit shard plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover the graph's vertex set.
    #[must_use]
    pub fn build_with_plan(
        graph: Graph,
        params: SpannerParams,
        plan: ShardPlan,
        options: ShardedOptions,
    ) -> Self {
        let build_options = PolyGreedyOptions {
            collect_certificates: options.oracle.collect_certificates,
            ..PolyGreedyOptions::default()
        };
        let result = poly_greedy_spanner_with(&graph, params, &build_options);
        Self::from_result(graph, result, plan, options)
    }

    /// Wraps an already-built spanner in a sharded oracle.
    ///
    /// # Panics
    ///
    /// Panics if the spanner or the plan does not cover the graph's vertex
    /// set.
    #[must_use]
    pub fn from_result(
        graph: Graph,
        result: SpannerResult,
        plan: ShardPlan,
        options: impl Into<ShardedOptions>,
    ) -> Self {
        let options = options.into();
        assert_eq!(
            graph.vertex_count(),
            plan.vertex_count(),
            "shard plan must cover the graph's vertex set"
        );
        let params = result.params;
        let global = FaultOracle::from_result(graph, result, options.oracle.clone());
        let halo_radius = options.halo_radius.unwrap_or_else(|| params.stretch());
        let shard_epochs = vec![0; plan.shard_count()];
        let grouping = options
            .super_shards
            .map(|count| ShardGrouping::pack(&plan, count));
        Self::assemble(global, plan, grouping, shard_epochs, halo_radius, options)
    }

    /// Derives the serving state — boundary index and interned shard
    /// regions — from the global oracle, the plan and the grouping. Cold
    /// builds and snapshot restores both end here, so a restore serves
    /// exactly what a build would.
    pub(crate) fn assemble(
        global: FaultOracle,
        plan: ShardPlan,
        grouping: Option<ShardGrouping>,
        shard_epochs: Vec<u64>,
        halo_radius: u32,
        options: ShardedOptions,
    ) -> Self {
        let boundary_plan = grouping.as_ref().map_or(&plan, |g| &g.plan);
        let boundary = BoundaryIndex::build(global.spanner(), boundary_plan);
        let regions = build_regions(
            &global,
            &plan,
            halo_radius,
            &options.oracle,
            shard_namespace,
        );
        Self {
            global,
            plan,
            grouping,
            boundary,
            regions,
            pair_regions: PairRegions::default(),
            shard_epochs,
            halo_radius,
            options,
            metrics: ShardedMetrics::default(),
            retired_cache_stats: (0, 0),
            wave_bfs: ftspan_graph::bfs::BfsScratch::default(),
        }
    }

    /// The shard plan in force.
    #[inline]
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The boundary index over the current spanner: cut edges between
    /// shards, or between super-shards when the oracle is grouped.
    #[inline]
    #[must_use]
    pub fn boundary(&self) -> &BoundaryIndex {
        &self.boundary
    }

    /// The global fallback oracle.
    #[inline]
    #[must_use]
    pub fn global(&self) -> &FaultOracle {
        &self.global
    }

    /// Number of shards.
    #[inline]
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// The current effective input graph (see [`FaultOracle::graph`]).
    #[inline]
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.global.graph()
    }

    /// The global spanner being served.
    #[inline]
    #[must_use]
    pub fn spanner(&self) -> &Graph {
        self.global.spanner()
    }

    /// The parameters the spanner targets.
    #[inline]
    #[must_use]
    pub fn params(&self) -> SpannerParams {
        self.global.params()
    }

    /// The stretch bound `2k − 1` as a float.
    #[inline]
    #[must_use]
    pub fn stretch_bound(&self) -> f64 {
        self.global.stretch_bound()
    }

    /// The halo radius every shard region was expanded by.
    #[inline]
    #[must_use]
    pub fn halo_radius(&self) -> u32 {
        self.halo_radius
    }

    /// Sharded serving metrics (lock-free; safe to read at any time).
    #[inline]
    #[must_use]
    pub fn metrics(&self) -> &ShardedMetrics {
        &self.metrics
    }

    /// The number of structural changes (fault waves) applied so far,
    /// mirroring [`FaultOracle::epoch`] so both backends expose one epoch
    /// through [`SpannerOracle`](crate::SpannerOracle). Per-shard rebuild
    /// counts are in [`ShardedOracle::shard_epochs`].
    #[inline]
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.global.epoch()
    }

    /// Aggregated tree-cache statistics `(cache_hits, trees_built)` across
    /// the global oracle, every shard region, the live pair regions, and
    /// every region already retired by churn rebuilds — the numbers behind
    /// the unified [`ServiceMetrics`](crate::ServiceMetrics) hit rate.
    /// Every routed query is recorded exactly once: on the region that
    /// certified its answer, or on the global oracle when it fell back.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        cache_stats(
            &self.global,
            &self.regions,
            &self.pair_regions,
            self.retired_cache_stats,
        )
    }

    /// Heap bytes held by the sharded serving state: the global oracle, the
    /// boundary index, and every **distinct** region allocation — shard and
    /// pair regions interned to one extraction are counted once, and each
    /// region holds its induced spanner, tree cache, remap and frontier.
    /// This is the number the `mem_bytes_per_edge` scale series reports.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.global.memory_bytes() + self.boundary.memory_bytes();
        self.pair_regions
            .for_each_distinct(&self.regions, |region| bytes += region.memory_bytes());
        bytes
    }

    /// Per-shard rebuild epochs: entry `s` counts how many fault waves
    /// forced shard `s`'s region (and therefore its caches) to be rebuilt.
    /// A wave confined to one shard leaves every other entry unchanged.
    #[must_use]
    pub fn shard_epochs(&self) -> &[u64] {
        &self.shard_epochs
    }

    /// The global ids of the vertices shard `s` serves (core plus halo).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard_members(&self, shard: usize) -> &[VertexId] {
        self.regions[shard].remap.members()
    }

    /// Distance in `H ∖ F` — identical to [`FaultOracle::distance`] on the
    /// same spanner. Like the single oracle, the borrowed fault set is never
    /// cloned on the query path.
    #[must_use]
    pub fn distance(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<f64> {
        with_query_scratch(|scratch| self.answer_parts(u, v, QueryKind::Distance, faults, scratch))
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
        let answer =
            with_query_scratch(|scratch| self.answer_parts(u, v, QueryKind::Path, faults, scratch));
        Some((answer.distance?, answer.path?))
    }

    /// Answers one query. For batches prefer
    /// [`ShardedOracle::answer_batch`](crate::batch).
    #[must_use]
    pub fn answer(&self, query: &Query) -> Answer {
        with_query_scratch(|scratch| self.answer_with_scratch(query, scratch))
    }

    /// The shared single-query path: route to a region, certify, fall back.
    pub(crate) fn answer_with_scratch(
        &self,
        query: &Query,
        scratch: &mut DijkstraScratch,
    ) -> Answer {
        self.answer_parts(query.u, query.v, query.kind, &query.faults, scratch)
    }

    fn answer_parts(
        &self,
        u: VertexId,
        v: VertexId,
        kind: QueryKind,
        faults: &FaultSet,
        scratch: &mut DijkstraScratch,
    ) -> Answer {
        match self.route(u, v) {
            Route::Local(shard) => {
                if let Some(answer) = self.regions[shard as usize].try_answer(
                    u,
                    v,
                    kind,
                    faults,
                    self.global.graph(),
                    scratch,
                ) {
                    self.metrics.record_local();
                    return answer;
                }
            }
            Route::Pair(a, b) => {
                let region = self.pair_region(a, b);
                if let Some(answer) =
                    region.try_answer(u, v, kind, faults, self.global.graph(), scratch)
                {
                    self.metrics.record_stitched();
                    return answer;
                }
            }
        }
        self.metrics.record_global_fallback();
        let key = self.global.key_ref(faults);
        self.global.answer_with_key(u, v, kind, &key, scratch)
    }

    /// Which region a vertex pair is served from.
    pub(crate) fn route(&self, u: VertexId, v: VertexId) -> Route {
        let su = self.plan.shard_of(u);
        let sv = self.plan.shard_of(v);
        if su == sv {
            Route::Local(su)
        } else {
            Route::Pair(su.min(sv), su.max(sv))
        }
    }

    /// Fetches (or lazily builds) the stitched pair region for two shards.
    pub(crate) fn pair_region(&self, a: u32, b: u32) -> Arc<Region> {
        self.pair_regions
            .get_or_stitch(&self.regions, a, b, |members| {
                Region::build(
                    self.global.graph(),
                    self.global.spanner(),
                    &self.options.oracle,
                    pair_namespace(a, b),
                    members,
                )
            })
    }
}

/// Aggregated tree-cache statistics `(cache_hits, trees_built)` of a routed
/// backend: the global oracle, every distinct live region, and the
/// statistics already folded in from retired regions.
pub(crate) fn cache_stats(
    global: &FaultOracle,
    regions: &[Arc<Region>],
    pair_regions: &PairRegions,
    retired: (u64, u64),
) -> (u64, u64) {
    let (mut hits, mut built) = retired;
    let mut add = |snap: MetricsSnapshot| {
        hits += snap.cache_hits;
        built += snap.trees_built;
    };
    pair_regions.for_each_distinct(regions, |region| add(region.trees.metrics().snapshot()));
    add(global.metrics().snapshot());
    (hits, built)
}

/// The region a query routes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Route {
    /// Both endpoints in one shard.
    Local(u32),
    /// Endpoints in two different shards (normalized `a < b`).
    Pair(u32, u32),
}

/// Cache namespace of a shard region (`0` is reserved for the global
/// namespace).
pub(crate) fn shard_namespace(shard: usize) -> u64 {
    shard as u64 + 1
}

/// Cache namespace of a pair region, disjoint from every shard namespace
/// for any realistic shard count.
pub(crate) fn pair_namespace(a: u32, b: u32) -> u64 {
    (u64::from(a) + 1) << 32 | (u64::from(b) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan::FaultModel;
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sharded(seed: u64, shards: usize, f: u32) -> ShardedOracle {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::connected_gnp(48, 0.15, &mut rng);
        sharded_on(graph, SpannerParams::vertex(2, f), shards)
    }

    fn sharded_on(graph: Graph, params: SpannerParams, shards: usize) -> ShardedOracle {
        let options = ShardedOptions {
            plan: ShardPlanOptions {
                shards,
                ..ShardPlanOptions::default()
            },
            ..ShardedOptions::default()
        };
        ShardedOracle::build(graph, params, options)
    }

    #[test]
    fn plan_is_a_deterministic_partition() {
        let mut rng = StdRng::seed_from_u64(1);
        let graph = generators::connected_gnp(40, 0.15, &mut rng);
        let options = ShardPlanOptions::default();
        let plan = ShardPlan::build(&graph, &options);
        assert_eq!(plan, ShardPlan::build(&graph, &options));
        assert_eq!(plan.vertex_count(), 40);
        let total: usize = (0..plan.shard_count()).map(|s| plan.core(s).len()).sum();
        assert_eq!(total, 40, "every vertex in exactly one core");
        for s in 0..plan.shard_count() {
            for &v in plan.core(s) {
                assert_eq!(plan.shard_of(v) as usize, s);
            }
        }
        // A different seed may produce a different plan but stays a partition.
        let other = ShardPlan::build(
            &graph,
            &ShardPlanOptions {
                seed: 99,
                ..options
            },
        );
        let total: usize = (0..other.shard_count()).map(|s| other.core(s).len()).sum();
        assert_eq!(total, 40);
    }

    /// FNV-1a of a plan's `shard_of` (little-endian `u32`s) and its core
    /// sizes.
    fn plan_pin(plan: &ShardPlan) -> (u64, Vec<usize>) {
        let bytes: Vec<u8> = plan.shard_of.iter().flat_map(|s| s.to_le_bytes()).collect();
        let sizes = (0..plan.shard_count())
            .map(|s| plan.core(s).len())
            .collect();
        (ftspan_graph::fnv1a64(&bytes), sizes)
    }

    #[test]
    fn plan_is_pinned_on_the_grid_and_on_a_refined_gnp() {
        // Recorded from the plan built by the simulated CONGEST flood.
        // Changing the shift draw order, the partition choice or a packing
        // tie-break moves these values.
        let options = ShardPlanOptions {
            shards: 16,
            ..ShardPlanOptions::default()
        };
        let grid = ShardPlan::build(&generators::grid(200, 200), &options);
        assert_eq!(plan_pin(&grid), (0x5e85_abe9_28ea_7465, vec![2500; 16]));

        // Low diameter: the packing fills only two shards, so the other
        // fourteen come from `split_by_bfs_layers`.
        let gnp = generators::connected_gnp(300, 0.1, &mut StdRng::seed_from_u64(1));
        let mut filled = pack_clusters(&balanced_clustering(&gnp, &options), 16);
        filled.sort_unstable();
        filled.dedup();
        assert_eq!(filled.len(), 2);
        assert_eq!(
            plan_pin(&ShardPlan::build(&gnp, &options)),
            (
                0x2255_a5f7_9c76_61d5,
                vec![19, 1, 19, 19, 19, 19, 19, 19, 37, 19, 19, 19, 18, 18, 18, 18]
            )
        );
    }

    #[test]
    fn packing_keeps_clusters_whole_and_fills_the_lightest_shard() {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = generators::connected_gnp(60, 0.1, &mut rng);
        let options = ShardPlanOptions::default();
        let centers = balanced_clustering(&graph, &options);
        let largest = cluster_sizes(&centers).into_iter().max().unwrap_or(0);
        for shards in [1usize, 3, 5] {
            let assignment = pack_clusters(&centers, shards);
            assert_eq!(assignment.len(), 60);
            assert!(assignment.iter().all(|&s| (s as usize) < shards));
            // Clusters are never split across shards.
            for (v, c) in centers.iter().enumerate() {
                assert_eq!(assignment[v], assignment[c.index()]);
            }
            // Greedy balance: no shard exceeds the lightest by more than the
            // largest cluster.
            let mut load = vec![0usize; shards];
            for &s in &assignment {
                load[s as usize] += 1;
            }
            assert!(load.iter().max().unwrap() - load.iter().min().unwrap() <= largest);
            assert_eq!(assignment, pack_clusters(&centers, shards));
        }
        // The kept clustering is the most balanced of the drawn ones.
        let mut rng = StdRng::seed_from_u64(options.seed);
        for _ in 0..options.partitions {
            let drawn = shifted_centers(&graph, &exponential_shifts(60, options.beta, &mut rng));
            assert!(cluster_sizes(&drawn).into_iter().max().unwrap_or(0) >= largest);
        }
        // Zero requested shards plans one.
        let one = ShardPlan::build(
            &graph,
            &ShardPlanOptions {
                shards: 0,
                ..options
            },
        );
        assert_eq!(one.shard_count(), 1);
    }

    #[test]
    fn degenerate_beta_is_rejected() {
        let graph = generators::path(8);
        for beta in [f64::NAN, -0.25, 0.0, f64::INFINITY, f64::NEG_INFINITY] {
            let options = ShardPlanOptions {
                beta,
                ..ShardPlanOptions::default()
            };
            let built = std::panic::catch_unwind(|| ShardPlan::build(&graph, &options));
            let message = built.expect_err("a degenerate beta must panic");
            let message = message
                .downcast_ref::<String>()
                .expect("the assert formats its message");
            assert!(
                message.contains("beta must be finite and positive"),
                "{message}"
            );
        }
        // Checked before anything else, on an empty graph too.
        let empty = std::panic::catch_unwind(|| {
            ShardPlan::build(
                &Graph::new(0),
                &ShardPlanOptions {
                    beta: 0.0,
                    ..ShardPlanOptions::default()
                },
            )
        });
        assert!(empty.is_err());
    }

    #[test]
    fn answers_match_the_global_oracle_exactly() {
        let oracle = sharded(2, 3, 1);
        let mut rng = StdRng::seed_from_u64(7);
        let n = oracle.graph().vertex_count();
        for _ in 0..60 {
            let u = vid(rng.gen_range(0..n));
            let v = vid(rng.gen_range(0..n));
            let faults = ftspan::sample_fault_set(
                oracle.graph(),
                ftspan::FaultModel::Vertex,
                1,
                &[],
                &mut rng,
            );
            assert_eq!(
                oracle.distance(u, v, &faults),
                oracle.global().distance(u, v, &faults),
                "u {u} v {v} faults {faults:?}"
            );
        }
        let snap = oracle.metrics().snapshot();
        assert_eq!(snap.queries, 60);
    }

    #[test]
    fn paths_are_valid_spanner_walks() {
        let oracle = sharded(3, 3, 1);
        let faults = FaultSet::vertices([vid(9)]);
        let mut served = 0;
        for (u, v) in [(0usize, 40usize), (5, 33), (17, 2)] {
            let Some((d, path)) = oracle.path(vid(u), vid(v), &faults) else {
                continue;
            };
            assert_eq!(path.first(), Some(&vid(u)));
            assert_eq!(path.last(), Some(&vid(v)));
            let mut walked = 0.0;
            for pair in path.windows(2) {
                let e = oracle
                    .spanner()
                    .edge_between(pair[0], pair[1])
                    .expect("path must use global spanner edges");
                walked += oracle.spanner().weight(e);
                assert!(!faults.contains_vertex(pair[0]));
            }
            assert!((walked - d).abs() < 1e-9);
            served += 1;
        }
        assert!(served > 0);
    }

    #[test]
    fn one_shard_plan_serves_everything_locally_without_fallbacks() {
        let oracle = sharded(4, 1, 1);
        assert_eq!(oracle.shard_count(), 1);
        assert!(oracle.boundary().cut_edges().is_empty());
        assert!(oracle.regions[0].frontier.is_empty());
        let mut rng = StdRng::seed_from_u64(11);
        let n = oracle.graph().vertex_count();
        for _ in 0..30 {
            let u = vid(rng.gen_range(0..n));
            let v = vid(rng.gen_range(0..n));
            let _ = oracle.distance(u, v, &FaultSet::vertices([vid(1)]));
        }
        let snap = oracle.metrics().snapshot();
        assert_eq!(
            snap.global_fallbacks, 0,
            "1-shard plan must never fall back"
        );
        assert_eq!(snap.local, 30);
        assert!((snap.locality_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regions_contain_core_plus_halo_and_expose_their_frontier() {
        let oracle = sharded(5, 3, 1);
        for s in 0..oracle.shard_count() {
            let members = oracle.shard_members(s);
            for &v in oracle.plan().core(s) {
                assert!(members.contains(&v), "core vertex {v} missing from region");
            }
            // Frontier vertices really have spanner edges leaving the region.
            let region = &oracle.regions[s];
            for &lf in &region.frontier {
                let g = region.remap.to_global(lf);
                assert!(oracle
                    .spanner()
                    .neighbors(g)
                    .any(|(nbr, _)| !region.remap.contains(nbr)));
            }
        }
    }

    #[test]
    fn pair_regions_are_built_lazily_and_reused() {
        let oracle = sharded(6, 3, 1);
        assert_eq!(oracle.pair_regions.lock().len(), 0);
        let a = oracle.pair_region(0, 1);
        let b = oracle.pair_region(0, 1);
        assert!(Arc::ptr_eq(&a, &b), "pair region must be cached");
        // The pair region serves both shards' vertices.
        for &v in oracle.plan().core(0).iter().chain(oracle.plan().core(1)) {
            assert!(a.remap.contains(v));
        }
    }

    #[test]
    fn memory_accounting_counts_regions_without_an_input_graph_copy() {
        // A grid keeps the halos local, so the four regions stay distinct.
        let options = ShardedOptions {
            plan: ShardPlanOptions {
                shards: 4,
                ..ShardPlanOptions::default()
            },
            ..ShardedOptions::default()
        };
        let oracle = ShardedOracle::build(
            generators::grid(12, 12),
            SpannerParams::vertex(2, 1),
            options,
        );
        let empty_cache =
            crate::cache::TreeCache::new(oracle.options.oracle.cache_capacity).memory_bytes();
        let mut expected = oracle.global().memory_bytes() + oracle.boundary().memory_bytes();
        let mut seen: Vec<*const Region> = Vec::new();
        for region in &oracle.regions {
            if seen.contains(&Arc::as_ptr(region)) {
                continue;
            }
            seen.push(Arc::as_ptr(region));
            expected += region.spanner.memory_bytes()
                + empty_cache
                + region.remap.memory_bytes()
                + region.frontier.capacity() * std::mem::size_of::<VertexId>();
        }
        assert!(seen.len() > 1, "the plan must yield distinct regions");
        assert_eq!(oracle.memory_bytes(), expected);
    }

    #[test]
    fn poisoned_pair_region_cache_keeps_serving() {
        let oracle = sharded(6, 3, 1);
        let _ = oracle.pair_region(0, 1);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = oracle.pair_regions.0.lock();
                panic!("poisoning the pair region cache on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(oracle.pair_regions.0.is_poisoned());

        let n = oracle.graph().vertex_count();
        let faults = FaultSet::vertices([vid(9)]);
        let (mut local, mut cross) = (0, 0);
        for u in (0..n).step_by(3) {
            for v in (1..n).step_by(5) {
                let (u, v) = (vid(u), vid(v));
                match oracle.route(u, v) {
                    Route::Local(_) => local += 1,
                    Route::Pair(..) => cross += 1,
                }
                assert_eq!(
                    oracle.distance(u, v, &faults).map(f64::to_bits),
                    oracle.global().distance(u, v, &faults).map(f64::to_bits),
                    "u {u} v {v}"
                );
            }
        }
        assert!(local > 0 && cross > 0, "both routes must be exercised");
        assert!(oracle.pair_regions.lock().len() > 1);
        let _ = oracle.cache_stats();
        assert!(oracle.memory_bytes() > 0);
    }

    #[test]
    fn poisoned_tree_caches_keep_serving() {
        let oracle = sharded(6, 3, 1);
        let n = oracle.graph().vertex_count();
        let faults = FaultSet::vertices([vid(9)]);
        let pairs: Vec<(VertexId, VertexId)> = (0..n)
            .step_by(3)
            .flat_map(|u| (1..n).step_by(5).map(move |v| (vid(u), vid(v))))
            .collect();
        // Warm the caches so the poisoned stores hold trees.
        for &(u, v) in &pairs {
            let _ = oracle.distance(u, v, &faults);
        }
        let stores = [&oracle.regions[0].trees, &oracle.global().trees];
        for store in stores {
            std::thread::scope(|scope| {
                let holder = scope.spawn(|| {
                    let _guard = store.cache_lock().lock();
                    panic!("poisoning a tree cache on purpose");
                });
                assert!(holder.join().is_err());
            });
            assert!(store.cache_lock().is_poisoned());
        }

        let mut local = 0;
        for &(u, v) in &pairs {
            if oracle.route(u, v) == Route::Local(0) {
                local += 1;
            }
            assert_eq!(
                oracle.distance(u, v, &faults).map(f64::to_bits),
                oracle.global().distance(u, v, &faults).map(f64::to_bits),
                "u {u} v {v}"
            );
        }
        assert!(local > 0, "the poisoned region must be exercised");
        for store in stores {
            assert!(
                !store.cache_lock().is_poisoned(),
                "recovery lifts the poison"
            );
        }
        // The recovered caches fill again: a repeated query hits.
        let (u, v) = pairs[0];
        let query = Query::distance(u, v, faults.clone());
        let _ = oracle.answer(&query);
        assert!(oracle.answer(&query).cache_hit);
        assert!(oracle.global().answer(&query).cache_hit);
        let _ = oracle.cache_stats();
        assert!(oracle.memory_bytes() > 0);
    }

    /// The escape certificate as first written, the reference for the cached
    /// one: read `front` off both endpoints' trees by scanning the frontier
    /// from each. Trees are memoized per region and root.
    struct TwoScanReference<'a> {
        faults: &'a FaultSet,
        graph: &'a Graph,
        trees: HashMap<(*const Region, VertexId), ftspan_graph::dijkstra::ShortestPathTree>,
        scratch: DijkstraScratch,
    }

    impl<'a> TwoScanReference<'a> {
        fn new(faults: &'a FaultSet, graph: &'a Graph) -> Self {
            Self {
                faults,
                graph,
                trees: HashMap::new(),
                scratch: DijkstraScratch::new(),
            }
        }

        /// `(front(root), d(root, target))` in the faulted region.
        fn front_and_distance(
            &mut self,
            region: &Region,
            root: VertexId,
            target: VertexId,
        ) -> (Option<f64>, Option<f64>) {
            let tree = self
                .trees
                .entry((std::ptr::from_ref(region), root))
                .or_insert_with(|| {
                    let faults = region.localize_faults(self.faults, self.graph);
                    self.scratch
                        .shortest_path_tree(&faults.apply(&region.spanner), root)
                });
            let front = region
                .frontier
                .iter()
                .filter_map(|&p| tree.distance_to(p))
                .min_by(f64::total_cmp);
            (front, tree.distance_to(target))
        }

        /// Whether the two-scan certificate accepts `(u, v)` (global ids);
        /// `false` when an endpoint is not a region member.
        fn certifies(&mut self, region: &Region, u: VertexId, v: VertexId) -> bool {
            let (Some(lu), Some(lv)) = (region.remap.to_local(u), region.remap.to_local(v)) else {
                return false;
            };
            match self.front_and_distance(region, lu, lv) {
                (None, _) => true,
                (Some(front_u), distance) => {
                    match (distance, self.front_and_distance(region, lv, lu).0) {
                        (_, None) => true,
                        (Some(d), Some(front_v)) => d <= front_u + front_v,
                        (None, Some(_)) => false,
                    }
                }
            }
        }
    }

    /// Asserts that `try_answer` certifies every pair of `oracle`'s graph
    /// exactly when the two-scan reference does, under each fault set: once
    /// with the region's cache emptied before every query (cold), then
    /// again with every tree the cold pass left behind (warm).
    fn assert_certificate_matches_two_scans(oracle: &ShardedOracle, fault_sets: &[FaultSet]) {
        let graph = oracle.graph();
        let n = graph.vertex_count();
        let mut scratch = DijkstraScratch::new();
        let (mut certified, mut refused) = (0, 0);
        for faults in fault_sets {
            let mut reference = TwoScanReference::new(faults, graph);
            for cold in [true, false] {
                for (u, v) in (0..n).flat_map(|u| (0..n).map(move |v| (vid(u), vid(v)))) {
                    let region = match oracle.route(u, v) {
                        Route::Local(s) => Arc::clone(&oracle.regions[s as usize]),
                        Route::Pair(a, b) => oracle.pair_region(a, b),
                    };
                    if cold {
                        region.trees.clear();
                    }
                    let expected = reference.certifies(&region, u, v);
                    let got = region
                        .try_answer(u, v, QueryKind::Distance, faults, graph, &mut scratch)
                        .is_some();
                    assert_eq!(got, expected, "cold {cold} u {u} v {v} faults {faults:?}");
                    if expected {
                        certified += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
        assert!(certified > 0 && refused > 0, "both outcomes must occur");
    }

    /// Fault sets spread over the graph: the empty set plus `count` sets of
    /// `size` seeded vertices (or edges of the input graph).
    fn spread_fault_sets(graph: &Graph, edges: bool, size: usize, count: usize) -> Vec<FaultSet> {
        let mut rng = StdRng::seed_from_u64(41);
        let mut sets = vec![FaultSet::empty(if edges {
            FaultModel::Edge
        } else {
            FaultModel::Vertex
        })];
        for _ in 0..count {
            sets.push(if edges {
                let m = graph.edge_count();
                FaultSet::edges((0..size).map(|_| ftspan_graph::eid(rng.gen_range(0..m))))
            } else {
                let n = graph.vertex_count();
                FaultSet::vertices((0..size).map(|_| vid(rng.gen_range(0..n))))
            });
        }
        sets
    }

    #[test]
    fn cached_certificate_matches_the_two_scan_reference_on_a_grid() {
        let graph = generators::grid(10, 10);
        let vertex = sharded_on(graph.clone(), SpannerParams::vertex(2, 2), 4);
        assert_certificate_matches_two_scans(&vertex, &spread_fault_sets(&graph, false, 2, 2));
        let edge = sharded_on(graph.clone(), SpannerParams::edge(2, 2), 4);
        assert_certificate_matches_two_scans(&edge, &spread_fault_sets(&graph, true, 2, 2));
    }

    #[test]
    fn cached_certificate_matches_the_two_scan_reference_on_a_weighted_geometric_graph() {
        // Sparse enough that halos stay short of the whole graph; it may be
        // disconnected, which exercises the locally-disconnected refusal.
        let mut rng = StdRng::seed_from_u64(8106);
        let graph = generators::random_geometric(80, 0.16, &mut rng);
        let graph = generators::with_random_weights(&graph, 1.0, 8.0, &mut rng);
        let vertex = sharded_on(graph.clone(), SpannerParams::vertex(2, 1), 4);
        assert_certificate_matches_two_scans(&vertex, &spread_fault_sets(&graph, false, 1, 2));
        let edge = sharded_on(graph.clone(), SpannerParams::edge(2, 1), 4);
        assert_certificate_matches_two_scans(&edge, &spread_fault_sets(&graph, true, 1, 2));
    }

    #[test]
    fn a_query_certified_from_u_alone_builds_one_region_tree() {
        let oracle = sharded_on(generators::grid(12, 12), SpannerParams::vertex(2, 1), 4);
        let faults = FaultSet::empty(FaultModel::Vertex);
        let region = &oracle.regions[0];
        let core = oracle.plan().core(0);
        // A core pair whose local distance is within u's own escape floor.
        let mut reference = TwoScanReference::new(&faults, oracle.graph());
        let local = |x: VertexId| region.remap.to_local(x).expect("core vertices are members");
        let (u, v) = core
            .iter()
            .flat_map(|&u| core.iter().map(move |&v| (u, v)))
            .find(|&(u, v)| {
                u != v
                    && matches!(
                        reference.front_and_distance(region, local(u), local(v)),
                        (Some(front_u), Some(d)) if d <= front_u
                    )
            })
            .expect("some core pair is certified from u's side alone");
        assert_eq!(oracle.route(u, v), Route::Local(0));
        region.trees.clear();
        let before = region.trees.metrics().snapshot().trees_built;
        let answer = region.try_answer(
            u,
            v,
            QueryKind::Distance,
            &faults,
            oracle.graph(),
            &mut DijkstraScratch::new(),
        );
        assert!(answer.is_some(), "the query is certified locally");
        assert_eq!(
            region.trees.metrics().snapshot().trees_built - before,
            1,
            "only u's tree is needed"
        );
    }

    #[test]
    fn region_signature_tracks_edges_leaving_the_region() {
        // Regression: a repair can add a spanner edge from a halo-rim member
        // to the outside without changing the member set or any induced
        // edge. The signature must still change, or the churn fan-out would
        // skip the rebuild and serve with a stale frontier.
        let before = generators::path(5); // 0-1-2-3-4
        let members = [vid(0), vid(1)];
        let mut after = before.clone();
        after.add_unit_edge(1, 3); // leaves {0, 1}; membership + induced edges unchanged
        assert_ne!(
            region_signature(&before, &before, &members),
            region_signature(&after, &after, &members)
        );
        // Same member set and incident edges → identical signature.
        assert_eq!(
            region_signature(&before, &before, &members),
            region_signature(&before, &before, &members)
        );
        // Edges wholly outside the region do not disturb it.
        let mut far = before.clone();
        far.add_unit_edge(2, 4);
        assert_eq!(
            region_signature(&before, &before, &members),
            region_signature(&far, &far, &members)
        );
    }

    #[test]
    fn shard_namespaces_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..16 {
            assert!(seen.insert(shard_namespace(s)));
        }
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                assert!(seen.insert(pair_namespace(a, b)));
            }
        }
        assert!(!seen.contains(&0), "0 is reserved for the global namespace");
    }
}
