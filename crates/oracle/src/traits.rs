//! The [`SpannerOracle`] trait: one algorithmic interface over every
//! serving backend.
//!
//! [`FaultOracle`] and [`ShardedOracle`] grew two parallel surfaces —
//! `distance` / `path` / `answer` / `answer_batch` / `apply_wave` plus
//! metrics and epoch accessors — that duplicated every caller written
//! against them (examples, benches, the planned front-end). This module is
//! the seam that collapses the duplication: generic code (most importantly
//! [`OracleService`](crate::service::OracleService)) is written once against
//! `SpannerOracle` and runs unchanged over either backend, the same way
//! deterministic MPC pipelines keep one ruling-set interface over many
//! execution models.
//!
//! ## Exactness contract
//!
//! Every implementation **must** answer queries *exactly*: for any query
//! `(u, v, F)`, [`SpannerOracle::distance`] returns the true shortest-path
//! distance `d_{H∖F}(u, v)` in the currently-served spanner `H` minus the
//! fault set `F` (and `None` exactly when the pair is disconnected or an
//! endpoint is faulted), and [`SpannerOracle::answer_batch`] returns, entry
//! for entry, what [`SpannerOracle::answer`] would return for the same
//! query against the same epoch. Implementations may cache, shard, batch,
//! or route however they like — but never approximate. The
//! `sharded_vs_single` and `service_vs_direct` differential suites enforce
//! this contract bit for bit on unit-weight inputs.
//!
//! ## Determinism contract (report digests)
//!
//! [`SpannerOracle::apply_wave`] must additionally be a **deterministic
//! function of the backend's state and the wave**: two backends at the same
//! state applying the same wave under the same [`ChurnConfig`] must make
//! identical repair decisions, summarized by an identical
//! [`WaveReport::digest`]. This is what the replication tier
//! ([`crate::replication`]) leans on — a replica replays the primary's
//! wave journal and asserts each entry's digest, so any nondeterminism in a
//! backend surfaces as a typed divergence error at the exact wave that
//! introduced it (the `replication_vs_primary` suite enforces this across
//! the single, flat and grouped backends). Machine-local measurements (elapsed time) are
//! excluded from the digest by construction.

use ftspan::{FaultSet, SpannerParams};
use ftspan_graph::{Graph, VertexId};

use crate::churn::{ChurnConfig, WaveReport};
use crate::metrics::{LocalitySplit, ServiceMetrics};
use crate::oracle::FaultOracle;
use crate::query::{Answer, Query};
use crate::shard::ShardedOracle;

/// A query-serving engine over a fault-tolerant spanner, abstracted over the
/// execution backend (single working set, sharded, …).
///
/// See the [module docs](crate::traits) for the exactness contract every
/// implementation must preserve, and
/// [`OracleService`](crate::service::OracleService) for the front-end built
/// on top of this trait.
///
/// `Send + Sync` are supertraits: the service front-end publishes the
/// backend behind an epoch pointer that reader worker threads clone and
/// query concurrently, so every backend must be shareable across threads.
/// Both shipped backends already are (interior mutability is confined to
/// mutex-guarded tree caches and atomic counters).
pub trait SpannerOracle: Send + Sync {
    /// The current effective input graph (the input graph minus accumulated
    /// permanent damage). Query edge-fault identifiers refer to this graph.
    fn graph(&self) -> &Graph;

    /// The spanner currently being served.
    fn spanner(&self) -> &Graph;

    /// The parameters the spanner targets.
    fn params(&self) -> SpannerParams;

    /// The stretch bound `2k − 1` as a float, for stretch audits.
    fn stretch_bound(&self) -> f64 {
        f64::from(self.params().stretch())
    }

    /// The number of structural changes (fault waves) applied so far.
    /// **Stale** cached artifacts never survive an epoch change; backends
    /// may keep caches that remain valid (a sharded backend deliberately
    /// preserves wave-untouched regions' warm trees across epochs).
    fn epoch(&self) -> u64;

    /// Distance in `H ∖ F`, or `None` when the faults disconnect the pair
    /// (or fault an endpoint). Must equal the exact shortest-path distance.
    fn distance(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<f64>;

    /// Distance plus an explicit shortest path in `H ∖ F`.
    fn path(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<(f64, Vec<VertexId>)>;

    /// Answers one query.
    fn answer(&self, query: &Query) -> Answer;

    /// Answers a batch of queries, returning answers in request order. Each
    /// answer must equal what [`SpannerOracle::answer`] would return for the
    /// same query at the same epoch.
    fn answer_batch(&self, queries: &[Query]) -> Vec<Answer>;

    /// Applies a permanent fault wave, repairs the spanner around it, and
    /// invalidates cached serving state. Returns the backend-agnostic
    /// [`WaveReport`]; backend-specific detail stays available through the
    /// concrete types' inherent `apply_wave` methods. Must be deterministic
    /// — see the [module docs](crate::traits) determinism contract that
    /// replication replays verify via [`WaveReport::digest`].
    fn apply_wave(&mut self, wave: &FaultSet, config: &ChurnConfig) -> WaveReport;

    /// A point-in-time [`ServiceMetrics`] view of the backend: queries, hit
    /// rate, trees built, waves, and (for routing backends) the locality
    /// split. Front-end counters (`submitted` / `coalesced` / `shed`) are
    /// zero here; [`OracleService`](crate::service::OracleService) fills
    /// them in.
    fn service_metrics(&self) -> ServiceMetrics;
}

impl SpannerOracle for FaultOracle {
    fn graph(&self) -> &Graph {
        self.graph()
    }

    fn spanner(&self) -> &Graph {
        self.spanner()
    }

    fn params(&self) -> SpannerParams {
        self.params()
    }

    fn epoch(&self) -> u64 {
        self.epoch()
    }

    fn distance(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<f64> {
        self.distance(u, v, faults)
    }

    fn path(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<(f64, Vec<VertexId>)> {
        self.path(u, v, faults)
    }

    fn answer(&self, query: &Query) -> Answer {
        self.answer(query)
    }

    fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.answer_batch(queries)
    }

    fn apply_wave(&mut self, wave: &FaultSet, config: &ChurnConfig) -> WaveReport {
        // The inherent method (which this resolves to) carries the provable
        // repair guarantees; the single oracle is one lane that every wave
        // rebuilds wholesale (its entire cache is invalidated).
        let outcome = self.apply_wave(wave, config);
        WaveReport {
            outcome,
            rebuilt_lanes: vec![0],
            severed_pairs: Vec::new(),
            epoch: self.epoch(),
        }
    }

    fn service_metrics(&self) -> ServiceMetrics {
        let snap = self.metrics().snapshot();
        ServiceMetrics {
            queries: snap.queries,
            cache_hits: snap.cache_hits,
            trees_built: snap.trees_built,
            batches: snap.batches,
            waves: snap.waves_applied,
            locality: None,
            ..ServiceMetrics::default()
        }
    }
}

impl SpannerOracle for ShardedOracle {
    fn graph(&self) -> &Graph {
        self.graph()
    }

    fn spanner(&self) -> &Graph {
        self.spanner()
    }

    fn params(&self) -> SpannerParams {
        self.params()
    }

    fn epoch(&self) -> u64 {
        self.epoch()
    }

    fn distance(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<f64> {
        self.distance(u, v, faults)
    }

    fn path(&self, u: VertexId, v: VertexId, faults: &FaultSet) -> Option<(f64, Vec<VertexId>)> {
        self.path(u, v, faults)
    }

    fn answer(&self, query: &Query) -> Answer {
        self.answer(query)
    }

    fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        self.answer_batch(queries)
    }

    fn apply_wave(&mut self, wave: &FaultSet, config: &ChurnConfig) -> WaveReport {
        let outcome = self.apply_wave(wave, config);
        WaveReport {
            rebuilt_lanes: outcome.rebuilt_shards,
            severed_pairs: outcome.severed_pairs,
            outcome: outcome.global,
            epoch: self.epoch(),
        }
    }

    fn service_metrics(&self) -> ServiceMetrics {
        let snap = self.metrics().snapshot();
        let (cache_hits, trees_built) = self.cache_stats();
        ServiceMetrics {
            queries: snap.queries,
            cache_hits,
            trees_built,
            batches: snap.batches,
            waves: snap.waves,
            locality: Some(LocalitySplit {
                local: snap.local,
                stitched: snap.stitched,
                global_fallbacks: snap.global_fallbacks,
            }),
            ..ServiceMetrics::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleOptions;
    use crate::shard::{ShardPlanOptions, ShardedOptions};
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::connected_gnp(36, 0.2, &mut rng)
    }

    /// A caller written once against the trait, exercised over both
    /// backends: the shape every generic consumer (service, examples,
    /// benches) relies on.
    fn drive<O: SpannerOracle>(oracle: &mut O) {
        let faults = FaultSet::vertices([vid(5)]);
        let single = oracle.distance(vid(0), vid(1), &faults);
        let answer = oracle.answer(&Query::distance(vid(0), vid(1), faults.clone()));
        assert_eq!(single, answer.distance());
        let batch = vec![
            Query::distance(vid(0), vid(1), faults.clone()),
            Query::path(vid(2), vid(9), faults.clone()),
        ];
        let answers = oracle.answer_batch(&batch);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].distance(), single);
        if let Some((d, p)) = oracle.path(vid(2), vid(9), &faults) {
            assert_eq!(answers[1].distance(), Some(d));
            assert_eq!(p.first(), Some(&vid(2)));
        }
        let epoch_before = oracle.epoch();
        let report = oracle.apply_wave(&FaultSet::vertices([vid(11)]), &ChurnConfig::default());
        assert!(!report.rebuilt_lanes.is_empty());
        assert_eq!(oracle.epoch(), epoch_before + 1);
        assert_eq!(report.epoch, oracle.epoch(), "the epoch the wave published");
        let metrics = oracle.service_metrics();
        assert!(metrics.queries >= 4);
        assert_eq!(metrics.waves, 1);
        assert_eq!(metrics.submitted, 0, "front-end counters stay zero");
    }

    #[test]
    fn fault_oracle_serves_through_the_trait() {
        let mut oracle = FaultOracle::build(
            workload(61),
            SpannerParams::vertex(2, 1),
            OracleOptions::default(),
        );
        drive(&mut oracle);
        assert!(SpannerOracle::service_metrics(&oracle).locality.is_none());
    }

    #[test]
    fn sharded_oracle_serves_through_the_trait() {
        let mut oracle = ShardedOracle::build(
            workload(62),
            SpannerParams::vertex(2, 1),
            ShardedOptions {
                plan: ShardPlanOptions {
                    shards: 3,
                    ..ShardPlanOptions::default()
                },
                ..ShardedOptions::default()
            },
        );
        drive(&mut oracle);
        assert!(SpannerOracle::service_metrics(&oracle).locality.is_some());
    }

    #[test]
    fn hierarchical_oracle_serves_through_the_trait() {
        let mut oracle = crate::HierarchicalOracle::build(
            workload(64),
            SpannerParams::vertex(2, 1),
            crate::HierarchicalOptions {
                plan: ShardPlanOptions {
                    shards: 4,
                    ..ShardPlanOptions::default()
                },
                super_shards: 2,
                ..crate::HierarchicalOptions::default()
            },
        );
        drive(&mut oracle);
        assert!(SpannerOracle::service_metrics(&oracle).locality.is_some());
    }

    #[test]
    fn trait_wave_report_matches_inherent_outcomes() {
        let graph = workload(63);
        let mut a = FaultOracle::build(
            graph.clone(),
            SpannerParams::vertex(2, 1),
            OracleOptions::default(),
        );
        let mut b =
            FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default());
        let wave = FaultSet::vertices([vid(4), vid(9)]);
        let inherent = a.apply_wave(&wave, &ChurnConfig::default());
        let report = SpannerOracle::apply_wave(&mut b, &wave, &ChurnConfig::default());
        assert_eq!(report.outcome.edges_added, inherent.edges_added);
        assert_eq!(report.outcome.broken_pairs, inherent.broken_pairs);
        assert_eq!(report.outcome.escalated, inherent.escalated);
        assert_eq!(report.rebuilt_lanes, vec![0]);
        assert!(report.severed_pairs.is_empty());
    }
}
