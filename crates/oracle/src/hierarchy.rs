//! Boundary grouping: shards of shards, with boundary state kept
//! **sub-linear** by indexing only super-shard portals.
//!
//! A flat [`ShardedOracle`] keeps one [`BoundaryIndex`](crate::BoundaryIndex)
//! over its shard partition. At 10⁵–10⁶ vertices that index stops being
//! small: the number of shards grows, every shard pair can carry cut edges,
//! and the per-pair bookkeeping approaches the size of the spanner itself.
//! Setting [`ShardedOptions::super_shards`] groups the shards into
//! **super-shards** (≈ √(shard count) of them by default, packed by core
//! size) and builds the boundary index over the super partition only — cut
//! edges *inside* a super-shard are invisible to it, so its footprint tracks
//! the coarse partition, not the fine one.
//!
//! The grouping scopes the boundary index and nothing else. Queries are
//! still routed to shard and shard-pair regions, which answer only under the
//! escape certificate of the [module docs](crate::shard), so a grouped
//! oracle's answers are bit-identical to the flat oracle's and to the single
//! global oracle's. What the grouping changes is the boundary's memory and
//! the severed pairs a wave reports, which are super-shard pairs.
//!
//! [`HierarchicalOptions`] is the grouped preset, and [`HierarchicalOracle`]
//! names a sharded oracle built from it.

use ftspan_graph::VertexId;

use crate::oracle::OracleOptions;
use crate::shard::{ShardPlan, ShardPlanOptions, ShardedOptions, ShardedOracle};

/// A [`ShardedOracle`] built from [`HierarchicalOptions`]: its boundary
/// index covers super-shards.
pub type HierarchicalOracle = ShardedOracle;

/// The grouped preset of [`ShardedOptions`]: the same fields, with the
/// super-shard count always set.
#[derive(Clone, Debug, Default)]
pub struct HierarchicalOptions {
    /// How the shard plan is derived (ignored by
    /// [`ShardedOracle::from_result`] when a plan is given).
    pub plan: ShardPlanOptions,
    /// Number of super-shards to group the shards into. `0` picks
    /// `ceil(sqrt(shard count))`, the balance point where both levels'
    /// boundary state grows like the square root of the shard count.
    pub super_shards: usize,
    /// Options of the global oracle and of every region's tree cache.
    pub oracle: OracleOptions,
}

impl HierarchicalOptions {
    /// The same options without the grouping — used by differential tests
    /// to build a flat twin of a grouped oracle.
    #[must_use]
    pub fn flat(&self) -> ShardedOptions {
        ShardedOptions {
            super_shards: None,
            ..self.clone().into()
        }
    }
}

impl From<HierarchicalOptions> for ShardedOptions {
    fn from(options: HierarchicalOptions) -> Self {
        Self {
            plan: options.plan,
            oracle: options.oracle,
            super_shards: Some(options.super_shards),
        }
    }
}

/// The shard → super-shard grouping of a [`ShardedOracle`], and the
/// vertex-level plan it composes to.
#[derive(Debug)]
pub(crate) struct ShardGrouping {
    /// `super_of_shard[s]` is the super-shard shard `s` belongs to.
    pub(crate) super_of_shard: Vec<u32>,
    /// The partition the boundary index is built over.
    pub(crate) plan: ShardPlan,
}

impl ShardGrouping {
    /// Packs the shards of `plan` into `super_shards` super-shards (`0`
    /// picks `ceil(sqrt(shard count))`; the count is clamped to
    /// `1..=shard count`).
    pub(crate) fn pack(plan: &ShardPlan, super_shards: usize) -> Self {
        let shard_count = plan.shard_count();
        let super_count = if super_shards == 0 {
            (shard_count as f64).sqrt().ceil() as usize
        } else {
            super_shards
        }
        .clamp(1, shard_count.max(1));
        let sizes: Vec<usize> = (0..shard_count).map(|s| plan.core(s).len()).collect();
        Self::new(plan, group_leaves(&sizes, super_count)).expect("every shard has a super-shard")
    }

    /// Wraps an explicit shard → super-shard assignment. `None` when some
    /// shard of `plan` has no entry.
    pub(crate) fn new(plan: &ShardPlan, super_of_shard: Vec<u32>) -> Option<Self> {
        let plan = compose_super_plan(plan, &super_of_shard)?;
        Some(Self {
            super_of_shard,
            plan,
        })
    }
}

/// Groups leaves (shards) into super-shards: leaves are taken largest first
/// and each goes to the currently lightest super-shard (ties to the lowest
/// id) — the classic LPT packing, deterministic in the leaf sizes.
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
fn compose_super_plan(leaf_plan: &ShardPlan, super_of_leaf: &[u32]) -> Option<ShardPlan> {
    let super_of_vertex = (0..leaf_plan.vertex_count())
        .map(|i| {
            super_of_leaf
                .get(leaf_plan.shard_of(VertexId::new(i)) as usize)
                .copied()
        })
        .collect::<Option<Vec<u32>>>()?;
    Some(ShardPlan::from_shard_of(super_of_vertex))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::BoundaryIndex;
    use crate::churn::ChurnConfig;
    use crate::shard::{Region, Route};
    use ftspan::{FaultSet, SpannerParams};
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

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

    fn grouping(oracle: &ShardedOracle) -> &ShardGrouping {
        oracle.grouping.as_ref().expect("a grouped oracle")
    }

    #[test]
    fn leaf_grouping_is_a_deterministic_cover() {
        let oracle = hierarchical(1, 4, 2, 1);
        let g = grouping(&oracle);
        assert_eq!(g.plan.shard_count(), 2);
        assert_eq!(oracle.shard_count(), 4);
        // Every shard maps to a super-shard, and the vertex-level super plan
        // agrees with the composition shard → super.
        for shard in 0..oracle.shard_count() {
            let sup = g.super_of_shard[shard];
            assert!((sup as usize) < g.plan.shard_count());
            for &v in oracle.plan().core(shard) {
                assert_eq!(g.plan.shard_of(v), sup);
            }
        }
        // Rebuilding from the same inputs reproduces the same grouping.
        let again = hierarchical(1, 4, 2, 1);
        assert_eq!(g.super_of_shard, grouping(&again).super_of_shard);
    }

    #[test]
    fn default_super_count_is_sqrt_of_leaves() {
        let oracle = hierarchical(2, 4, 0, 1);
        assert_eq!(grouping(&oracle).plan.shard_count(), 2);
        let one = hierarchical(2, 1, 0, 1);
        assert_eq!(grouping(&one).plan.shard_count(), 1);
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
        // The shard partition refines the super partition, so every
        // super-level cut edge is also a shard-level cut edge.
        let leaf_boundary = BoundaryIndex::build(oracle.spanner(), oracle.plan());
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
        for shard in 0..oracle.shard_count() {
            let expected = u64::from(outcome.rebuilt_shards.contains(&shard));
            assert_eq!(oracle.shard_epochs()[shard], expected);
        }
        // Severed pairs name super-shards: the boundary index covers them.
        let supers = grouping(&oracle).plan.shard_count() as u32;
        assert!(outcome
            .severed_pairs
            .iter()
            .all(|&(a, b)| a < b && b < supers));
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
    fn memory_accounting_dedups_shared_regions() {
        let oracle = hierarchical(8, 4, 2, 1);
        let bytes = oracle.memory_bytes();
        assert!(bytes > 0);
        // Materializing a pair that interns to a shard region must not
        // change the accounted total.
        let Route::Pair(a, b) = oracle.route(oracle.plan().core(0)[0], oracle.plan().core(1)[0])
        else {
            panic!("cores 0 and 1 must be distinct shards");
        };
        let pair: Arc<Region> = oracle.pair_region(a, b);
        let grew = oracle.memory_bytes() - bytes;
        if oracle.regions.iter().any(|r| Arc::ptr_eq(r, &pair)) {
            assert_eq!(grew, 0, "interned pair must not be double counted");
        } else {
            assert!(grew > 0, "distinct pair allocation must be accounted");
        }
    }
}
