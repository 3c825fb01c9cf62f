//! Batched query answering on the calling thread.
//!
//! A batch is its queries in request order: each one goes through the
//! single-query path under one borrow of the thread's recycled query
//! scratch, so `answer_batch(qs)` returns exactly what `answer` returns for
//! each query of `qs` in turn, cache-hit flags included. Concurrency comes
//! from the callers: every thread that runs a service round answers its own
//! batch.

use crate::oracle::{with_query_scratch, FaultOracle};
use crate::query::{Answer, Query};
use crate::shard::ShardedOracle;

impl FaultOracle {
    /// Answers a batch of queries in request order, on the calling thread
    /// with its recycled [`DijkstraScratch`](ftspan_graph::dijkstra::DijkstraScratch).
    #[must_use]
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.metrics().record_batch();
        with_query_scratch(|scratch| {
            queries
                .iter()
                .map(|query| self.answer_with_scratch(query, scratch))
                .collect()
        })
    }
}

impl ShardedOracle {
    /// Answers a batch of queries in request order — identical answers to
    /// [`FaultOracle::answer_batch`] on the same spanner, but routed through
    /// the shards. Pair regions are built on first use.
    #[must_use]
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.metrics().record_batch();
        with_query_scratch(|scratch| {
            queries
                .iter()
                .map(|query| self.answer_with_scratch(query, scratch))
                .collect()
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

    fn oracle() -> FaultOracle {
        let mut rng = StdRng::seed_from_u64(31);
        let graph = generators::connected_gnp(30, 0.25, &mut rng);
        FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default())
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
                // A handful of distinct fault sets, so trees get reused.
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
        let oracle = oracle();
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
    fn batch_reuses_cached_trees() {
        let oracle = oracle();
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
    fn empty_batch_is_fine() {
        let oracle = oracle();
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
        // Same graph and spanner construction as `oracle`, so
        // the sharded batch must reproduce the single oracle's answers.
        let single = oracle();
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
        let single = oracle();
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
