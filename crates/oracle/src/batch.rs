//! Batched query answering over a worker pool.
//!
//! Batches are grouped by fault set before being handed to workers: all
//! queries under the same `F` land in the same group, so the group's first
//! query computes (or finds) the shortest-path trees and the rest hit the
//! cache without ever contending for it from another thread. Groups are
//! distributed over the pool through a simple atomic cursor — group sizes
//! are uneven, so work stealing at group granularity beats static chunking.
//!
//! Results are written into **disjoint pre-sized output windows**: one
//! contiguous answer buffer is `split_at_mut` into per-group slices up
//! front, and whichever worker claims a group writes that group's answers
//! by index into its own window. Each window's lock is taken exactly once,
//! by exactly one worker, so result collection is contention-free (the
//! previous design funneled every worker's output through one shared
//! `Mutex<Vec<(usize, Answer)>>`).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

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
fn group_by_fingerprint(queries: &[Query], namespace: u64) -> Vec<(u64, Vec<usize>)> {
    let mut by_fault: HashMap<u64, Vec<usize>> = HashMap::new();
    for (idx, query) in queries.iter().enumerate() {
        let fp = KeyRef::new(namespace, &query.faults).fingerprint();
        by_fault.entry(fp).or_default().push(idx);
    }
    let mut groups: Vec<(u64, Vec<usize>)> = by_fault.into_iter().collect();
    for (_, idxs) in &mut groups {
        idxs.sort_unstable_by_key(|&i| (queries[i].u, queries[i].v, i));
    }
    groups
}

/// Splits one contiguous answer buffer into per-group windows. Window `g`
/// holds `groups[g].1.len()` slots; the scatter step maps them back to
/// request order.
fn split_windows<'a, T>(
    mut rest: &'a mut [Option<Answer>],
    groups: &[(T, Vec<usize>)],
) -> Vec<Mutex<&'a mut [Option<Answer>]>> {
    let mut windows = Vec::with_capacity(groups.len());
    for (_, idxs) in groups {
        let (window, tail) = rest.split_at_mut(idxs.len());
        windows.push(Mutex::new(window));
        rest = tail;
    }
    windows
}

/// Answers every group and returns the answers in request order. Groups are
/// claimed through an atomic cursor by `workers` scoped threads, each with
/// its own [`DijkstraScratch`], or by the calling thread alone when
/// `workers <= 1`. That lane reuses the thread's recycled query scratch, so
/// a one-query frame never regrows graph-sized buffers; nothing inside
/// `answer_group` borrows that scratch again. `answer_group` fills the
/// claimed group's window, one slot per index of the group in order.
fn fan_out<T: Sync>(
    groups: &[(T, Vec<usize>)],
    total: usize,
    workers: usize,
    answer_group: impl Fn(&(T, Vec<usize>), &mut [Option<Answer>], &mut DijkstraScratch) + Sync,
) -> Vec<Answer> {
    let mut grouped: Vec<Option<Answer>> = Vec::with_capacity(total);
    grouped.resize_with(total, || None);
    let cursor = AtomicUsize::new(0);
    let windows = split_windows(&mut grouped, groups);
    let work = |scratch: &mut DijkstraScratch| loop {
        let g = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(group) = groups.get(g) else {
            break;
        };
        // Exactly one worker claims group `g`, so this lock is
        // uncontended and taken once per group.
        let mut window = windows[g].lock().expect("batch output window poisoned");
        answer_group(group, &mut window, scratch);
    };
    if workers <= 1 {
        with_query_scratch(work);
    } else {
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || work(&mut DijkstraScratch::new()));
            }
        });
    }
    drop(windows);
    scatter(grouped, groups, total)
}

/// Reassembles group-major answers into request order.
fn scatter<T>(
    grouped: Vec<Option<Answer>>,
    groups: &[(T, Vec<usize>)],
    total: usize,
) -> Vec<Answer> {
    let mut slots: Vec<Option<Answer>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    let mut cursor = grouped.into_iter();
    for (_, idxs) in groups {
        for &idx in idxs {
            slots[idx] = cursor.next().expect("window sized to its group");
        }
    }
    slots
        .into_iter()
        .map(|a| a.expect("every query index answered exactly once"))
        .collect()
}

impl FaultOracle {
    /// Answers a batch of queries, returning answers in request order.
    ///
    /// Queries are grouped by fault set and the groups are served by a pool
    /// of `options.workers` threads (machine parallelism when 0). Each worker
    /// owns a [`DijkstraScratch`] (a batch served on the calling thread uses
    /// that thread's recycled one), holds the group's most recent tree to skip
    /// repeat cache probes, and writes into its group's disjoint output
    /// window; the tree cache is shared through the oracle.
    #[must_use]
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.metrics().record_batch();
        if queries.is_empty() {
            return Vec::new();
        }

        let groups = group_by_fingerprint(queries, self.cache_namespace());
        let workers = self.effective_workers(groups.len());
        fan_out(
            &groups,
            queries.len(),
            workers,
            |(fp, idxs), window, scratch| {
                let mut held: Option<(&Query, Arc<CachedTree>)> = None;
                for (slot, &idx) in window.iter_mut().zip(idxs) {
                    *slot = Some(self.answer_group_query(queries, *fp, idx, &mut held, scratch));
                }
            },
        )
    }

    /// Answers one query of a fault-set group, reusing the group's held tree
    /// when the roots line up (skipping the cache mutex entirely). The memo
    /// is bypassed when caching is disabled so `cache_capacity: 0` keeps its
    /// meaning as the recompute-everything baseline.
    ///
    /// LRU semantics: a group's first query probes the cache and refreshes
    /// its fault set's recency once per group claim; memo-served queries
    /// deliberately do not touch the cache again. Recency therefore means
    /// "when was this fault set last *claimed*", not a per-query counter —
    /// the trade that keeps thousands of repeat queries off the cache
    /// mutex. Memo answers report `cache_hit = true` because the tree they
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
        let key = KeyRef::with_fingerprint(self.cache_namespace(), fingerprint, &query.faults);
        let (cached, cache_hit) = self.tree_for(&key, query.u, query.v, scratch);
        let answer = self.answer_from_tree(query.u, query.v, query.kind, &cached.tree, cache_hit);
        if self.options.cache_capacity > 0 {
            *held = Some((query, cached));
        }
        answer
    }

    pub(crate) fn effective_workers(&self, groups: usize) -> usize {
        let configured = if self.options.workers == 0 {
            thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.options.workers
        };
        configured.min(groups).max(1)
    }
}

impl ShardedOracle {
    /// Answers a batch of queries, returning answers in request order —
    /// identical answers to [`FaultOracle::answer_batch`] on the same
    /// spanner, but routed through the shards.
    ///
    /// Queries are grouped by `(region route, fault set)` so each group
    /// shares its region's cached trees, and the groups are fanned out over
    /// the same kind of work-stealing worker pool the single oracle uses,
    /// with the same disjoint per-group output windows. Pair regions for
    /// every cross-shard route in the batch are materialized up front, so
    /// workers never contend on the pair cache.
    #[must_use]
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.metrics().record_batch();
        if queries.is_empty() {
            return Vec::new();
        }

        let mut by_group: HashMap<(Route, u64), Vec<usize>> = HashMap::new();
        let mut pairs: HashSet<(u32, u32)> = HashSet::new();
        for (idx, query) in queries.iter().enumerate() {
            let route = self.route(query.u, query.v);
            if let Route::Pair(a, b) = route {
                pairs.insert((a, b));
            }
            let fp = KeyRef::new(0, &query.faults).fingerprint();
            by_group.entry((route, fp)).or_default().push(idx);
        }
        for (a, b) in pairs {
            let _ = self.pair_region(a, b);
        }
        let groups: Vec<(Route, Vec<usize>)> = by_group
            .into_iter()
            .map(|((route, _), idxs)| (route, idxs))
            .collect();

        let workers = self.global().effective_workers(groups.len());
        fan_out(
            &groups,
            queries.len(),
            workers,
            |(_, idxs), window, scratch| {
                for (slot, &idx) in window.iter_mut().zip(idxs) {
                    *slot = Some(self.answer_with_scratch(&queries[idx], scratch));
                }
            },
        )
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

    fn oracle_with_workers(workers: usize, cache_capacity: usize) -> FaultOracle {
        let mut rng = StdRng::seed_from_u64(31);
        let graph = generators::connected_gnp(30, 0.25, &mut rng);
        let options = OracleOptions {
            workers,
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
        let parallel = oracle_with_workers(4, 64);
        let queries = mixed_batch(120, 30, 7);
        let batched = parallel.answer_batch(&queries);
        assert_eq!(batched.len(), queries.len());
        for (query, answer) in queries.iter().zip(&batched) {
            let single = parallel.answer(query);
            assert_eq!(single.distance, answer.distance, "query {query:?}");
            assert_eq!(single.path, answer.path);
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let sequential = oracle_with_workers(1, 64);
        let parallel = oracle_with_workers(6, 64);
        let queries = mixed_batch(90, 30, 8);
        let a = sequential.answer_batch(&queries);
        let b = parallel.answer_batch(&queries);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.distance, y.distance);
            assert_eq!(x.path, y.path);
        }
    }

    #[test]
    fn grouping_yields_high_cache_hit_rate() {
        let oracle = oracle_with_workers(1, 64);
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
        let oracle = oracle_with_workers(1, 0);
        let queries = mixed_batch(40, 30, 10);
        let _ = oracle.answer_batch(&queries);
        let snap = oracle.metrics().snapshot();
        assert_eq!(snap.queries, 40);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.trees_built, 40);
    }

    #[test]
    fn empty_batch_is_fine() {
        let oracle = oracle_with_workers(4, 64);
        assert!(oracle.answer_batch(&[]).is_empty());
    }

    fn sharded_with_workers(workers: usize, shards: usize) -> crate::ShardedOracle {
        let mut rng = StdRng::seed_from_u64(31);
        let graph = generators::connected_gnp(30, 0.25, &mut rng);
        let options = crate::ShardedOptions {
            plan: crate::ShardPlanOptions {
                shards,
                ..crate::ShardPlanOptions::default()
            },
            oracle: OracleOptions {
                workers,
                ..OracleOptions::default()
            },
            ..crate::ShardedOptions::default()
        };
        crate::ShardedOracle::build(graph, SpannerParams::vertex(2, 1), options)
    }

    #[test]
    fn sharded_batch_matches_single_oracle_batch() {
        // Same graph and spanner construction as `oracle_with_workers`, so
        // the sharded batch must reproduce the single oracle's answers.
        let single = oracle_with_workers(4, 64);
        for shards in [1usize, 3] {
            let sharded = sharded_with_workers(4, shards);
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
        }
    }

    #[test]
    fn hierarchical_batch_matches_single_oracle_batch() {
        let single = oracle_with_workers(4, 64);
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
                oracle: OracleOptions {
                    workers: 4,
                    ..OracleOptions::default()
                },
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

    #[test]
    fn sharded_sequential_and_parallel_agree() {
        let sequential = sharded_with_workers(1, 3);
        let parallel = sharded_with_workers(6, 3);
        let queries = mixed_batch(90, 30, 13);
        let a = sequential.answer_batch(&queries);
        let b = parallel.answer_batch(&queries);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.distance, y.distance);
        }
        assert!(sequential.answer_batch(&[]).is_empty());
    }
}
