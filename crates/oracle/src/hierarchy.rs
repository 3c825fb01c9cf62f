//! Hierarchical two-level sharding: shards of shards, with boundary state
//! kept **sub-linear** by indexing only super-shard portals.
//!
//! The flat [`ShardedOracle`](crate::ShardedOracle) keeps one
//! [`BoundaryIndex`] over the *leaf* partition. At 10⁵–10⁶ vertices that
//! index stops being small: the number of leaf shards grows, every leaf pair
//! can carry cut edges, and the per-pair bookkeeping approaches the size of
//! the spanner itself. The [`HierarchicalOracle`] interposes a second level:
//! leaves are grouped into **super-shards** (≈ √(leaf count) of them by
//! default), and the boundary index is built over the super partition only —
//! cut edges *inside* a super-shard are invisible to it, so its footprint
//! tracks the coarse partition, not the fine one.
//!
//! ## Exactness through both levels
//!
//! Hierarchical answers are bit-identical to the flat sharded oracle's and
//! to the single global oracle's, for the same reason flat answers are: a
//! region answer is returned **only** under the escape certificate of
//! [`Region::try_answer`] — `d(u, v) ≤ front(u) + front(v)` or an endpoint
//! cannot reach the region's frontier — and that certificate is sound for
//! *any* member set, no matter which level of the hierarchy produced it.
//! Same-leaf queries certify against the leaf region (core + halo); cross-
//! leaf queries certify against the lazily-stitched pair region (the union
//! of both leaf regions); anything the certificate cannot prove falls back
//! to the global oracle. The second level therefore changes *memory*, not
//! answers, and the `sharded_vs_single` differential suite pins all three
//! backends to the same bits across churn waves.

use std::collections::HashSet;
use std::sync::Arc;

use ftspan::{poly_greedy_spanner_with, FaultSet, PolyGreedyOptions, SpannerParams, SpannerResult};
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::{Graph, VertexId};

use crate::boundary::BoundaryIndex;
use crate::churn::{ChurnConfig, WaveOutcome};
use crate::oracle::{FaultOracle, OracleOptions};
use crate::query::{Answer, Query, QueryKind};
use crate::shard::{
    build_regions, cache_stats, region_signature, PairRegions, Region, Route, ShardPlan,
    ShardPlanOptions, ShardedMetrics, ShardedOptions,
};

/// Configuration of a [`HierarchicalOracle`].
#[derive(Clone, Debug, Default)]
pub struct HierarchicalOptions {
    /// How the **leaf** shard plan is derived (ignored by
    /// [`HierarchicalOracle::from_result`] when a plan is given).
    pub plan: ShardPlanOptions,
    /// Number of super-shards to group the leaves into. `0` picks
    /// `ceil(sqrt(leaf count))`, the balance point where both levels'
    /// boundary state grows like the square root of the leaf count.
    pub super_shards: usize,
    /// Hop radius of every leaf's halo (see
    /// [`ShardedOptions::halo_radius`]). `None` uses the stretch `2k − 1`.
    pub halo_radius: Option<u32>,
    /// Options of the global oracle and (with per-region cache namespaces)
    /// of every region's tree cache.
    pub oracle: OracleOptions,
}

impl HierarchicalOptions {
    /// The flat sharded options this configuration corresponds to — used by
    /// differential tests to build a flat twin of a hierarchical oracle.
    #[must_use]
    pub fn flat(&self) -> ShardedOptions {
        ShardedOptions {
            plan: self.plan.clone(),
            halo_radius: self.halo_radius,
            oracle: self.oracle.clone(),
        }
    }
}

/// Groups leaves into super-shards: leaves are taken largest first and each
/// goes to the currently lightest super-shard (ties to the lowest id) — the
/// classic LPT packing, deterministic in the leaf sizes.
fn group_leaves(leaf_sizes: &[usize], super_count: usize) -> Vec<u32> {
    let mut order: Vec<usize> = (0..leaf_sizes.len()).collect();
    order.sort_unstable_by(|&a, &b| leaf_sizes[b].cmp(&leaf_sizes[a]).then(a.cmp(&b)));
    let mut load = vec![0usize; super_count];
    let mut super_of_leaf = vec![0u32; leaf_sizes.len()];
    for leaf in order {
        let lightest = (0..super_count)
            .min_by_key(|&s| (load[s], s))
            .expect("at least one super-shard");
        super_of_leaf[leaf] = lightest as u32;
        load[lightest] += leaf_sizes[leaf];
    }
    super_of_leaf
}

/// The vertex-level super plan: vertex `i` goes to the super-shard of its
/// leaf. `None` when some leaf has no super-shard assignment.
pub(crate) fn compose_super_plan(
    leaf_plan: &ShardPlan,
    super_of_leaf: &[u32],
) -> Option<ShardPlan> {
    let super_of_vertex = (0..leaf_plan.vertex_count())
        .map(|i| {
            super_of_leaf
                .get(leaf_plan.shard_of(VertexId::new(i)) as usize)
                .copied()
        })
        .collect::<Option<Vec<u32>>>()?;
    Some(ShardPlan::from_shard_of(super_of_vertex))
}

/// What one [`HierarchicalOracle::apply_wave`] call did.
#[derive(Clone, Debug)]
pub struct HierarchyWaveOutcome {
    /// The global repair outcome (the wave is applied to the global oracle
    /// first; its localized repair carries the provable guarantees).
    pub global: WaveOutcome,
    /// Leaves whose region changed and was rebuilt from the repaired
    /// spanner. Untouched leaves keep their cached trees.
    pub rebuilt_leaves: Vec<usize>,
    /// Super-shard pairs that were adjacent before the wave and have no
    /// surviving cut edge afterwards — the coarse-grained severance signal
    /// the level-2 boundary index exists to provide.
    pub severed_super_pairs: Vec<(u32, u32)>,
}

/// A two-level sharded drop-in for
/// [`FaultOracle`](crate::FaultOracle) / [`ShardedOracle`](crate::ShardedOracle):
/// same query vocabulary, identical answers, with boundary state indexed at
/// super-shard granularity only.
///
/// See the [module docs](crate::hierarchy) for the architecture and the
/// exactness argument.
#[derive(Debug)]
pub struct HierarchicalOracle {
    pub(crate) global: FaultOracle,
    /// The fine partition queries are routed by.
    pub(crate) leaf_plan: ShardPlan,
    /// The coarse partition the boundary index is built over.
    pub(crate) super_plan: ShardPlan,
    /// `super_of_leaf[l]` is the super-shard leaf `l` belongs to.
    pub(crate) super_of_leaf: Vec<u32>,
    /// Level-2 boundary: cut edges and portals of the **super** partition
    /// only — the sub-linear half of the scale tier's memory story.
    pub(crate) boundary: BoundaryIndex,
    /// One region per leaf, interned like the flat oracle's (siblings with
    /// identical member sets share one extraction).
    pub(crate) regions: Vec<Arc<Region>>,
    pub(crate) pair_regions: PairRegions,
    pub(crate) leaf_epochs: Vec<u64>,
    pub(crate) halo_radius: u32,
    pub(crate) options: HierarchicalOptions,
    pub(crate) metrics: ShardedMetrics,
    pub(crate) retired_cache_stats: (u64, u64),
    pub(crate) wave_bfs: ftspan_graph::bfs::BfsScratch,
}

impl HierarchicalOracle {
    /// Builds the global spanner, derives a leaf plan from the padded
    /// decomposition, groups the leaves into super-shards, and wires up the
    /// two-level serving state.
    #[must_use]
    pub fn build(graph: Graph, params: SpannerParams, options: HierarchicalOptions) -> Self {
        let plan = ShardPlan::build(&graph, &options.plan);
        let build_options = PolyGreedyOptions {
            collect_certificates: options.oracle.collect_certificates,
            ..PolyGreedyOptions::default()
        };
        let result = poly_greedy_spanner_with(&graph, params, &build_options);
        Self::from_result(graph, result, plan, options)
    }

    /// Wraps an already-built spanner in a hierarchical oracle under an
    /// explicit **leaf** plan.
    ///
    /// # Panics
    ///
    /// Panics if the spanner or the plan does not cover the graph's vertex
    /// set.
    #[must_use]
    pub fn from_result(
        graph: Graph,
        result: SpannerResult,
        leaf_plan: ShardPlan,
        options: HierarchicalOptions,
    ) -> Self {
        assert_eq!(
            graph.vertex_count(),
            leaf_plan.vertex_count(),
            "leaf plan must cover the graph's vertex set"
        );
        let params = result.params;
        let global = FaultOracle::from_result(graph, result, options.oracle.clone());
        let halo_radius = options.halo_radius.unwrap_or_else(|| params.stretch());

        let leaf_count = leaf_plan.shard_count();
        let super_count = if options.super_shards == 0 {
            (leaf_count as f64).sqrt().ceil() as usize
        } else {
            options.super_shards
        }
        .clamp(1, leaf_count.max(1));
        let leaf_sizes: Vec<usize> = (0..leaf_count).map(|l| leaf_plan.core(l).len()).collect();
        let super_of_leaf = group_leaves(&leaf_sizes, super_count);
        let super_plan =
            compose_super_plan(&leaf_plan, &super_of_leaf).expect("every leaf has a super-shard");
        let leaf_epochs = vec![0; leaf_count];
        Self::assemble(
            global,
            leaf_plan,
            super_plan,
            super_of_leaf,
            leaf_epochs,
            halo_radius,
            options,
        )
    }

    /// Derives the serving state — the level-2 boundary index and the
    /// interned leaf regions — from the global oracle and both plans. Cold
    /// builds and snapshot restores both end here, so a restore serves
    /// exactly what a build would.
    pub(crate) fn assemble(
        global: FaultOracle,
        leaf_plan: ShardPlan,
        super_plan: ShardPlan,
        super_of_leaf: Vec<u32>,
        leaf_epochs: Vec<u64>,
        halo_radius: u32,
        options: HierarchicalOptions,
    ) -> Self {
        let boundary = BoundaryIndex::build(global.spanner(), &super_plan);
        let regions = build_regions(
            &global,
            &leaf_plan,
            halo_radius,
            &options.oracle,
            leaf_namespace,
        );
        Self {
            global,
            leaf_plan,
            super_plan,
            super_of_leaf,
            boundary,
            regions,
            pair_regions: PairRegions::default(),
            leaf_epochs,
            halo_radius,
            options,
            metrics: ShardedMetrics::default(),
            retired_cache_stats: (0, 0),
            wave_bfs: ftspan_graph::bfs::BfsScratch::default(),
        }
    }

    /// The leaf shard plan queries are routed by.
    #[inline]
    #[must_use]
    pub fn leaf_plan(&self) -> &ShardPlan {
        &self.leaf_plan
    }

    /// The super-shard plan the level-2 boundary index covers.
    #[inline]
    #[must_use]
    pub fn super_plan(&self) -> &ShardPlan {
        &self.super_plan
    }

    /// The super-shard a leaf belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    #[inline]
    #[must_use]
    pub fn super_of(&self, leaf: usize) -> u32 {
        self.super_of_leaf[leaf]
    }

    /// The level-2 boundary index (super-shard portals only).
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

    /// Number of leaf shards.
    #[inline]
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaf_plan.shard_count()
    }

    /// Number of super-shards.
    #[inline]
    #[must_use]
    pub fn super_count(&self) -> usize {
        self.super_plan.shard_count()
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

    /// The halo radius every leaf region was expanded by.
    #[inline]
    #[must_use]
    pub fn halo_radius(&self) -> u32 {
        self.halo_radius
    }

    /// Serving metrics (lock-free; safe to read at any time).
    #[inline]
    #[must_use]
    pub fn metrics(&self) -> &ShardedMetrics {
        &self.metrics
    }

    /// The number of structural changes (fault waves) applied so far.
    #[inline]
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.global.epoch()
    }

    /// Per-leaf rebuild epochs, mirroring
    /// [`ShardedOracle::shard_epochs`](crate::ShardedOracle::shard_epochs).
    #[must_use]
    pub fn leaf_epochs(&self) -> &[u64] {
        &self.leaf_epochs
    }

    /// The global ids of the vertices leaf `l` serves (core plus halo).
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    #[must_use]
    pub fn leaf_members(&self, leaf: usize) -> &[VertexId] {
        self.regions[leaf].remap.members()
    }

    /// Aggregated tree-cache statistics `(cache_hits, trees_built)` across
    /// the global oracle and every distinct region allocation, live or
    /// retired.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        cache_stats(
            &self.global,
            &self.regions,
            &self.pair_regions,
            self.retired_cache_stats,
        )
    }

    /// Heap bytes held by the hierarchical serving state: the global
    /// oracle, the **super-level** boundary index, and every distinct
    /// region allocation. Comparing this against
    /// [`ShardedOracle::memory_bytes`](crate::ShardedOracle::memory_bytes)
    /// on the same graph shows the level-2 saving directly.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.global.memory_bytes() + self.boundary.memory_bytes();
        self.pair_regions
            .for_each_distinct(&self.regions, |region| bytes += region.memory_bytes());
        bytes
    }

    /// Distance in `H ∖ F` — identical to [`FaultOracle::distance`] on the
    /// same spanner.
    #[must_use]
    pub fn distance(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<f64> {
        self.global
            .with_scratch(|scratch| self.answer_parts(u, v, QueryKind::Distance, faults, scratch))
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
        let answer = self
            .global
            .with_scratch(|scratch| self.answer_parts(u, v, QueryKind::Path, faults, scratch));
        Some((answer.distance?, answer.path?))
    }

    /// Answers one query. For batches prefer
    /// [`HierarchicalOracle::answer_batch`](crate::batch).
    #[must_use]
    pub fn answer(&self, query: &Query) -> Answer {
        self.global
            .with_scratch(|scratch| self.answer_with_scratch(query, scratch))
    }

    /// The shared single-query path: route to a leaf or pair region,
    /// certify, fall back.
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
            Route::Local(leaf) => {
                if let Some(answer) = self.regions[leaf as usize].try_answer(
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

    /// Which region a vertex pair is served from (routes are at **leaf**
    /// granularity; the super level only scopes the boundary index).
    pub(crate) fn route(&self, u: VertexId, v: VertexId) -> Route {
        let lu = self.leaf_plan.shard_of(u);
        let lv = self.leaf_plan.shard_of(v);
        if lu == lv {
            Route::Local(lu)
        } else {
            Route::Pair(lu.min(lv), lu.max(lv))
        }
    }

    /// Fetches (or lazily builds) the stitched pair region for two leaves.
    pub(crate) fn pair_region(&self, a: u32, b: u32) -> Arc<Region> {
        self.pair_regions
            .get_or_stitch(&self.regions, a, b, |members| {
                Region::build(
                    self.global.graph(),
                    self.global.spanner(),
                    &self.options.oracle,
                    hierarchy_pair_namespace(a, b),
                    members,
                )
            })
    }

    /// Applies a permanent fault wave and fans the repair out across the
    /// leaves, mirroring
    /// [`ShardedOracle::apply_wave`](crate::ShardedOracle::apply_wave):
    /// global churn loop first, then signature-gated leaf rebuilds, with
    /// super-pair severance read off the rebuilt level-2 boundary index.
    pub fn apply_wave(&mut self, wave: &FaultSet, config: &ChurnConfig) -> HierarchyWaveOutcome {
        let pairs_before = self.boundary.adjacent_pairs();
        let global = self.global.apply_wave(wave, config);

        self.boundary = BoundaryIndex::build(self.global.spanner(), &self.super_plan);
        let severed_super_pairs = {
            let after: HashSet<(u32, u32)> = self.boundary.adjacent_pairs().into_iter().collect();
            pairs_before
                .into_iter()
                .filter(|p| !after.contains(p))
                .collect()
        };

        let mut rebuilt_leaves = Vec::new();
        let mut folded: Vec<*const Region> = Vec::new();
        for leaf in 0..self.leaf_plan.shard_count() {
            let members = self.global.spanner().halo_members_with(
                &mut self.wave_bfs,
                self.leaf_plan.core(leaf),
                self.halo_radius,
            );
            let signature = region_signature(self.global.graph(), self.global.spanner(), &members);
            if signature == self.regions[leaf].signature {
                continue;
            }
            let retired_ptr = Arc::as_ptr(&self.regions[leaf]);
            if !folded.contains(&retired_ptr) {
                folded.push(retired_ptr);
                let retired = self.regions[leaf].trees.metrics().snapshot();
                self.retired_cache_stats.0 += retired.cache_hits;
                self.retired_cache_stats.1 += retired.trees_built;
            }
            let shared = self
                .regions
                .iter()
                .enumerate()
                .find(|&(other, r)| {
                    other != leaf
                        && r.signature == signature
                        && r.remap.members() == members.as_slice()
                })
                .map(|(_, r)| Arc::clone(r));
            self.regions[leaf] = shared.unwrap_or_else(|| {
                Arc::new(Region::build(
                    self.global.graph(),
                    self.global.spanner(),
                    &self.options.oracle,
                    leaf_namespace(leaf),
                    &members,
                ))
            });
            self.leaf_epochs[leaf] += 1;
            rebuilt_leaves.push(leaf);
        }
        {
            let mut pairs = self.pair_regions.lock();
            for region in pairs.values() {
                let ptr = Arc::as_ptr(region);
                if folded.contains(&ptr) || self.regions.iter().any(|r| Arc::ptr_eq(r, region)) {
                    continue;
                }
                folded.push(ptr);
                let retired = region.trees.metrics().snapshot();
                self.retired_cache_stats.0 += retired.cache_hits;
                self.retired_cache_stats.1 += retired.trees_built;
            }
            pairs.clear();
        }
        self.metrics.record_wave();

        HierarchyWaveOutcome {
            global,
            rebuilt_leaves,
            severed_super_pairs,
        }
    }
}

/// Cache namespace of a leaf region. Bit 48 keeps the hierarchy's
/// namespaces disjoint from the flat oracle's (`s + 1` and
/// `(a+1) << 32 | (b+1)`) and from the reserved global `0`.
pub(crate) fn leaf_namespace(leaf: usize) -> u64 {
    (1 << 48) | (leaf as u64 + 1)
}

/// Cache namespace of a leaf-pair region, disjoint from every leaf
/// namespace (bit 49 vs bit 48) for any realistic leaf count.
pub(crate) fn hierarchy_pair_namespace(a: u32, b: u32) -> u64 {
    (1 << 49) | (u64::from(a) + 1) << 24 | (u64::from(b) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedOracle;
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hierarchical(seed: u64, shards: usize, supers: usize, f: u32) -> HierarchicalOracle {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::connected_gnp(48, 0.15, &mut rng);
        let options = HierarchicalOptions {
            plan: ShardPlanOptions {
                shards,
                ..ShardPlanOptions::default()
            },
            super_shards: supers,
            ..HierarchicalOptions::default()
        };
        HierarchicalOracle::build(graph, SpannerParams::vertex(2, f), options)
    }

    #[test]
    fn leaf_grouping_is_a_deterministic_cover() {
        let oracle = hierarchical(1, 4, 2, 1);
        assert_eq!(oracle.super_count(), 2);
        assert_eq!(oracle.leaf_count(), 4);
        // Every leaf maps to a super-shard, and the vertex-level super plan
        // agrees with the composition leaf → super.
        for leaf in 0..oracle.leaf_count() {
            let sup = oracle.super_of(leaf);
            assert!((sup as usize) < oracle.super_count());
            for &v in oracle.leaf_plan().core(leaf) {
                assert_eq!(oracle.super_plan().shard_of(v), sup);
            }
        }
        // Rebuilding from the same inputs reproduces the same grouping.
        let again = hierarchical(1, 4, 2, 1);
        assert_eq!(oracle.super_of_leaf, again.super_of_leaf);
    }

    #[test]
    fn default_super_count_is_sqrt_of_leaves() {
        let oracle = hierarchical(2, 4, 0, 1);
        assert_eq!(oracle.super_count(), 2);
        let one = hierarchical(2, 1, 0, 1);
        assert_eq!(one.super_count(), 1);
    }

    #[test]
    fn answers_match_the_global_oracle_exactly() {
        let oracle = hierarchical(3, 4, 2, 1);
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
                oracle.distance(u, v, &faults).map(f64::to_bits),
                oracle.global().distance(u, v, &faults).map(f64::to_bits),
                "u {u} v {v} faults {faults:?}"
            );
        }
        assert_eq!(oracle.metrics().snapshot().queries, 60);
    }

    #[test]
    fn matches_the_flat_sharded_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(4);
        let graph = generators::connected_gnp(48, 0.15, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let options = HierarchicalOptions {
            plan: ShardPlanOptions {
                shards: 4,
                ..ShardPlanOptions::default()
            },
            super_shards: 2,
            ..HierarchicalOptions::default()
        };
        let flat = ShardedOracle::build(graph.clone(), params, options.flat());
        let deep = HierarchicalOracle::build(graph, params, options);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let u = vid(rng.gen_range(0..48));
            let v = vid(rng.gen_range(0..48));
            let faults = FaultSet::vertices([vid(rng.gen_range(0..48))]);
            assert_eq!(
                deep.distance(u, v, &faults).map(f64::to_bits),
                flat.distance(u, v, &faults).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn super_boundary_is_no_larger_than_the_leaf_boundary() {
        let oracle = hierarchical(5, 4, 2, 1);
        // The leaf partition refines the super partition, so every
        // super-level cut edge is also a leaf-level cut edge.
        let leaf_boundary = BoundaryIndex::build(oracle.spanner(), oracle.leaf_plan());
        assert!(oracle.boundary().cut_edges().len() <= leaf_boundary.cut_edges().len());
        assert!(
            oracle.boundary().adjacent_pairs().len() <= leaf_boundary.adjacent_pairs().len(),
            "the coarse partition cannot have more adjacent pairs than the fine one"
        );
        // (Byte totals are only compared at bench scale — Vec capacity
        // rounding makes them noisy on toy graphs.)
    }

    #[test]
    fn waves_rebuild_only_touched_leaves() {
        let mut oracle = hierarchical(6, 4, 2, 1);
        let outcome = oracle.apply_wave(&FaultSet::vertices([vid(3)]), &ChurnConfig::default());
        assert_eq!(oracle.epoch(), 1);
        for leaf in 0..oracle.leaf_count() {
            let expected = u64::from(outcome.rebuilt_leaves.contains(&leaf));
            assert_eq!(oracle.leaf_epochs()[leaf], expected);
        }
        // Answers stay exact after the wave.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let u = vid(rng.gen_range(0..48));
            let v = vid(rng.gen_range(0..48));
            let faults = FaultSet::vertices([vid(rng.gen_range(0..48))]);
            assert_eq!(
                oracle.distance(u, v, &faults).map(f64::to_bits),
                oracle.global().distance(u, v, &faults).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn namespaces_are_disjoint_across_levels_and_backends() {
        let mut seen = std::collections::HashSet::new();
        seen.insert(0u64); // reserved global
        for s in 0..64 {
            assert!(seen.insert(crate::shard::shard_namespace(s)));
            assert!(seen.insert(leaf_namespace(s)));
        }
        for a in 0..12u32 {
            for b in (a + 1)..12 {
                assert!(seen.insert(crate::shard::pair_namespace(a, b)));
                assert!(seen.insert(hierarchy_pair_namespace(a, b)));
            }
        }
    }

    #[test]
    fn memory_accounting_dedups_shared_regions() {
        let oracle = hierarchical(8, 4, 2, 1);
        let bytes = oracle.memory_bytes();
        assert!(bytes > 0);
        // Materializing a pair that interns to a leaf must not change the
        // accounted total.
        let Route::Pair(a, b) =
            oracle.route(oracle.leaf_plan().core(0)[0], oracle.leaf_plan().core(1)[0])
        else {
            panic!("cores 0 and 1 must be distinct leaves");
        };
        let pair = oracle.pair_region(a, b);
        let grew = oracle.memory_bytes() - bytes;
        if oracle.regions.iter().any(|r| Arc::ptr_eq(r, &pair)) {
            assert_eq!(grew, 0, "interned pair must not be double counted");
        } else {
            assert!(grew > 0, "distinct pair allocation must be accounted");
        }
    }
}
