//! The batch contract: `answer_batch(qs)` returns, entry for entry, what
//! `answer` returns for each query of `qs` in request order.
//!
//! On weighted graphs this is a statement about bits, not just values:
//! `d(u, v)` read off the tree rooted at `u` and off the tree rooted at `v`
//! can round differently, and which tree the cache holds depends on the
//! order the queries ran in. So each backend is built twice from the same
//! graph; one twin answers every burst as a batch, the other answers the
//! same burst one query at a time, and the answers (distance bits, path,
//! cache-hit flag) must agree. The bursts mix hot sources, reversed pairs
//! and repeated queries over a few fault sets, start on a cold cache, and
//! run before and after fault waves.

use ftspan::{sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_graph::{generators, vid, Graph, VertexId};
use ftspan_integration_tests::rng;
use ftspan_oracle::{
    Answer, ChurnConfig, FaultOracle, OracleOptions, Query, ShardPlanOptions, ShardedOptions,
    ShardedOracle, SpannerOracle,
};
use rand::rngs::StdRng;
use rand::Rng;

const BURST: usize = 80;
const ROUNDS: usize = 3;

fn weighted_geometric(seed: u64) -> Graph {
    let mut r = rng(seed);
    let base = generators::random_geometric(70, 0.2, &mut r);
    generators::with_random_weights(&base, 1.0, 8.0, &mut r)
}

/// A burst over four fault sets and six hot sources: every third query
/// reverses an earlier pair, every fifth repeats one verbatim.
fn burst(graph: &Graph, r: &mut StdRng) -> Vec<Query> {
    let n = graph.vertex_count();
    let pool: Vec<FaultSet> = (0..4)
        .map(|_| sample_fault_set(graph, FaultModel::Vertex, 1, &[], r))
        .collect();
    let hot: Vec<VertexId> = (0..6).map(|_| vid(r.gen_range(0..n))).collect();
    let mut queries: Vec<Query> = Vec::with_capacity(BURST);
    while queries.len() < BURST {
        let i = queries.len();
        let query = if i % 3 == 2 {
            let earlier = &queries[r.gen_range(0..i)];
            Query::path(earlier.v, earlier.u, earlier.faults.clone())
        } else if i % 5 == 4 {
            queries[r.gen_range(0..i)].clone()
        } else {
            let u = hot[r.gen_range(0..hot.len())];
            let v = vid(r.gen_range(0..n));
            if u == v {
                continue;
            }
            Query::distance(u, v, pool[r.gen_range(0..pool.len())].clone())
        };
        queries.push(query);
    }
    queries
}

fn assert_same(label: &str, queries: &[Query], batch: &[Answer], single: &[Answer]) {
    assert_eq!(batch.len(), queries.len(), "{label}");
    for ((query, b), s) in queries.iter().zip(batch).zip(single) {
        assert_eq!(
            b.distance().map(f64::to_bits),
            s.distance().map(f64::to_bits),
            "{label}: distance bits for {query:?}"
        );
        assert_eq!(b.path(), s.path(), "{label}: path for {query:?}");
        assert_eq!(
            b.cache_hit(),
            s.cache_hit(),
            "{label}: cache hit for {query:?}"
        );
    }
}

fn batch_equals_answers_in_order<O: SpannerOracle>(label: &str, build: impl Fn() -> O) {
    let mut batched = build();
    let mut single = build();
    let churn = ChurnConfig::default();
    let mut r = rng(0xBA7C);
    for round in 0..ROUNDS {
        for pass in 0..2 {
            let queries = burst(batched.graph(), &mut r);
            let want: Vec<Answer> = queries.iter().map(|q| single.answer(q)).collect();
            let got = batched.answer_batch(&queries);
            assert_same(
                &format!("{label} round {round} pass {pass}"),
                &queries,
                &got,
                &want,
            );
        }
        let wave = sample_fault_set(batched.graph(), FaultModel::Vertex, 3, &[], &mut r);
        batched.apply_wave(&wave, &churn);
        single.apply_wave(&wave, &churn);
    }
}

#[test]
fn single_oracle_batch_answers_in_request_order() {
    batch_equals_answers_in_order("single", || {
        FaultOracle::build(
            weighted_geometric(9203),
            SpannerParams::vertex(2, 1),
            OracleOptions::default(),
        )
    });
}

#[test]
fn sharded_oracle_batch_answers_in_request_order() {
    batch_equals_answers_in_order("sharded", || {
        let options = ShardedOptions {
            plan: ShardPlanOptions {
                shards: 4,
                ..ShardPlanOptions::default()
            },
            ..ShardedOptions::default()
        };
        ShardedOracle::build(
            weighted_geometric(9203),
            SpannerParams::vertex(2, 1),
            options,
        )
    });
}
