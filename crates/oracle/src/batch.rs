//! Batched query answering on the calling thread.
//!
//! A batch is grouped by fault set: all queries under the same `F` land in
//! the same group, so the group's first query computes (or finds) the
//! shortest-path trees and the rest hit the cache. Groups are answered in
//! order on the calling thread with that thread's recycled query scratch,
//! and each answer is written straight into its request slot. Concurrency
//! comes from the callers: every thread that runs a service round answers
//! its own batch.

use std::collections::HashMap;
use std::sync::Arc;

use ftspan_graph::dijkstra::DijkstraScratch;

use crate::cache::{CachedTree, KeyRef};
use crate::oracle::{with_query_scratch, FaultOracle};
use crate::query::{Answer, Query};
use crate::shard::{Route, ShardedOracle};

/// A batch partitioned into fault-set groups: `groups[g]` lists the indices
/// of the queries sharing the `g`-th fault set, sorted by source vertex so
/// consecutive queries can reuse the same cached tree without re-probing the
/// cache. Grouping hashes only the `u64` fingerprint — per-query work is
/// allocation-free; a (astronomically unlikely) fingerprint collision merely
/// merges two groups, whose queries still resolve exactly by their own fault
/// sets.
fn group_by_fingerprint(queries: &[Query]) -> Vec<(u64, Vec<usize>)> {
    let mut by_fault: HashMap<u64, Vec<usize>> = HashMap::new();
    for (idx, query) in queries.iter().enumerate() {
        let fp = KeyRef::new(&query.faults).fingerprint();
        by_fault.entry(fp).or_default().push(idx);
    }
    let mut groups: Vec<(u64, Vec<usize>)> = by_fault.into_iter().collect();
    for (_, idxs) in &mut groups {
        idxs.sort_unstable_by_key(|&i| (queries[i].u, queries[i].v, i));
    }
    groups
}

/// Runs `fill` with the calling thread's recycled scratch over one empty
/// slot per query, and returns the slots, each filled exactly once, in
/// request order.
fn answer_in_slots(
    total: usize,
    fill: impl FnOnce(&mut [Option<Answer>], &mut DijkstraScratch),
) -> Vec<Answer> {
    let mut slots: Vec<Option<Answer>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    with_query_scratch(|scratch| fill(&mut slots, scratch));
    slots
        .into_iter()
        .map(|a| a.expect("every query index answered exactly once"))
        .collect()
}

impl FaultOracle {
    /// Answers a batch of queries, returning answers in request order.
    ///
    /// Queries are grouped by fault set and the groups are answered in
    /// order on the calling thread, with its recycled [`DijkstraScratch`].
    /// Within a group the most recent tree is held to skip repeat cache
    /// probes.
    #[must_use]
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.metrics().record_batch();
        let groups = group_by_fingerprint(queries);
        answer_in_slots(queries.len(), |slots, scratch| {
            for (fp, idxs) in &groups {
                let mut held: Option<(&Query, Arc<CachedTree>)> = None;
                for &idx in idxs {
                    slots[idx] =
                        Some(self.answer_group_query(queries, *fp, idx, &mut held, scratch));
                }
            }
        })
    }

    /// Answers one query of a fault-set group, reusing the group's held tree
    /// when the roots line up (skipping the cache mutex entirely). The memo
    /// is bypassed when caching is disabled so `cache_capacity: 0` keeps its
    /// meaning as the recompute-everything baseline.
    ///
    /// LRU semantics: a group's first query probes the cache and refreshes
    /// its fault set's recency once per group; memo-served queries
    /// deliberately do not touch the cache again. Recency therefore means
    /// "when was this fault set's group last opened", not a per-query
    /// counter — the trade that keeps thousands of repeat queries off the
    /// cache mutex. Memo answers report `cache_hit = true` because the tree they
    /// read did come from the cache (or was computed and inserted for this
    /// very group).
    fn answer_group_query<'q>(
        &self,
        queries: &'q [Query],
        fingerprint: u64,
        idx: usize,
        held: &mut Option<(&'q Query, Arc<CachedTree>)>,
        scratch: &mut DijkstraScratch,
    ) -> Answer {
        let query = &queries[idx];
        if let Some((held_query, cached)) = held {
            let root = cached.tree.source();
            if (root == query.u || root == query.v) && held_query.faults == query.faults {
                return self.answer_from_tree(query.u, query.v, query.kind, &cached.tree, true);
            }
        }
        let key = KeyRef::with_fingerprint(fingerprint, &query.faults);
        let (cached, cache_hit) = self.tree_for(&key, query.u, query.v, scratch);
        let answer = self.answer_from_tree(query.u, query.v, query.kind, &cached.tree, cache_hit);
        if self.options.cache_capacity > 0 {
            *held = Some((query, cached));
        }
        answer
    }
}

impl ShardedOracle {
    /// Answers a batch of queries, returning answers in request order —
    /// identical answers to [`FaultOracle::answer_batch`] on the same
    /// spanner, but routed through the shards.
    ///
    /// Queries are grouped by `(region route, fault set)` so each group
    /// shares its region's cached trees, and the groups are answered in
    /// order on the calling thread with its recycled scratch. Pair regions
    /// are built on first use.
    #[must_use]
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.metrics().record_batch();
        let mut by_group: HashMap<(Route, u64), Vec<usize>> = HashMap::new();
        for (idx, query) in queries.iter().enumerate() {
            let fp = KeyRef::new(&query.faults).fingerprint();
            by_group
                .entry((self.route(query.u, query.v), fp))
                .or_default()
                .push(idx);
        }
        answer_in_slots(queries.len(), |slots, scratch| {
            for idxs in by_group.values() {
                for &idx in idxs {
                    slots[idx] = Some(self.answer_with_scratch(&queries[idx], scratch));
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleOptions;
    use ftspan::{FaultModel, FaultSet, SpannerParams};
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn oracle_with_cache(cache_capacity: usize) -> FaultOracle {
        let mut rng = StdRng::seed_from_u64(31);
        let graph = generators::connected_gnp(30, 0.25, &mut rng);
        let options = OracleOptions {
            cache_capacity,
            ..OracleOptions::default()
        };
        FaultOracle::build(graph, SpannerParams::vertex(2, 1), options)
    }

    fn mixed_batch(n: usize, vertices: usize, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let u = vid(rng.gen_range(0..vertices));
                let mut v = vid(rng.gen_range(0..vertices));
                while v == u {
                    v = vid(rng.gen_range(0..vertices));
                }
                // A handful of distinct fault sets so grouping matters.
                let victim = vid(rng.gen_range(0..4usize) + 10);
                let faults = if victim == u || victim == v {
                    FaultSet::empty(FaultModel::Vertex)
                } else {
                    FaultSet::vertices([victim])
                };
                if i % 3 == 0 {
                    Query::path(u, v, faults)
                } else {
                    Query::distance(u, v, faults)
                }
            })
            .collect()
    }

    #[test]
    fn batch_matches_single_query_answers() {
        let oracle = oracle_with_cache(64);
        let queries = mixed_batch(120, 30, 7);
        let batched = oracle.answer_batch(&queries);
        assert_eq!(batched.len(), queries.len());
        for (query, answer) in queries.iter().zip(&batched) {
            let single = oracle.answer(query);
            assert_eq!(single.distance, answer.distance, "query {query:?}");
            assert_eq!(single.path, answer.path);
        }
    }

    #[test]
    fn grouping_yields_high_cache_hit_rate() {
        let oracle = oracle_with_cache(64);
        let queries = mixed_batch(200, 30, 9);
        let _ = oracle.answer_batch(&queries);
        let snap = oracle.metrics().snapshot();
        assert_eq!(snap.queries, 200);
        // A few fault sets serve 200 queries: most answers must be hits.
        assert!(
            snap.hit_rate() > 0.5,
            "hit rate {:.2} unexpectedly low",
            snap.hit_rate()
        );
        assert_eq!(snap.batches, 1);
    }

    #[test]
    fn cache_off_batches_never_reuse_trees() {
        // With capacity 0 the held-tree memo must stay disabled: every query
        // recomputes, keeping the cache-off bench an honest baseline.
        let oracle = oracle_with_cache(0);
        let queries = mixed_batch(40, 30, 10);
        let _ = oracle.answer_batch(&queries);
        let snap = oracle.metrics().snapshot();
        assert_eq!(snap.queries, 40);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.trees_built, 40);
    }

    #[test]
    fn empty_batch_is_fine() {
        let oracle = oracle_with_cache(64);
        assert!(oracle.answer_batch(&[]).is_empty());
    }

    fn sharded(shards: usize) -> crate::ShardedOracle {
        let mut rng = StdRng::seed_from_u64(31);
        let graph = generators::connected_gnp(30, 0.25, &mut rng);
        let options = crate::ShardedOptions {
            plan: crate::ShardPlanOptions {
                shards,
                ..crate::ShardPlanOptions::default()
            },
            ..crate::ShardedOptions::default()
        };
        crate::ShardedOracle::build(graph, SpannerParams::vertex(2, 1), options)
    }

    #[test]
    fn sharded_batch_matches_single_oracle_batch() {
        // Same graph and spanner construction as `oracle_with_cache`, so
        // the sharded batch must reproduce the single oracle's answers.
        let single = oracle_with_cache(64);
        for shards in [1usize, 3] {
            let sharded = sharded(shards);
            let queries = mixed_batch(150, 30, 12);
            let a = single.answer_batch(&queries);
            let b = sharded.answer_batch(&queries);
            assert_eq!(a.len(), b.len());
            for ((query, x), y) in queries.iter().zip(&a).zip(&b) {
                assert_eq!(x.distance, y.distance, "shards {shards}: {query:?}");
                match (&x.path, &y.path) {
                    (None, None) => {}
                    (Some(p), Some(q)) => {
                        // Shortest paths need not be unique; both must be
                        // walks of the same length with the right endpoints.
                        assert_eq!(p.first(), q.first());
                        assert_eq!(p.last(), q.last());
                    }
                    other => panic!("path presence diverged: {other:?}"),
                }
            }
            assert_eq!(sharded.metrics().snapshot().queries, 150);
            assert!(sharded.answer_batch(&[]).is_empty());
        }
    }

    #[test]
    fn hierarchical_batch_matches_single_oracle_batch() {
        let single = oracle_with_cache(64);
        let mut rng = StdRng::seed_from_u64(31);
        let graph = generators::connected_gnp(30, 0.25, &mut rng);
        let deep = crate::HierarchicalOracle::build(
            graph,
            SpannerParams::vertex(2, 1),
            crate::HierarchicalOptions {
                plan: crate::ShardPlanOptions {
                    shards: 4,
                    ..crate::ShardPlanOptions::default()
                },
                super_shards: 2,
                ..crate::HierarchicalOptions::default()
            },
        );
        let queries = mixed_batch(150, 30, 12);
        let a = single.answer_batch(&queries);
        let b = deep.answer_batch(&queries);
        assert_eq!(a.len(), b.len());
        for ((query, x), y) in queries.iter().zip(&a).zip(&b) {
            assert_eq!(x.distance, y.distance, "{query:?}");
        }
        assert_eq!(deep.metrics().snapshot().queries, 150);
        assert!(deep.answer_batch(&[]).is_empty());
    }
}
